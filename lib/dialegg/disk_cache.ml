(** Durable, size-bounded entry commits shared by the vet / audit / serve
    disk caches; see the interface for the model. *)

let cache_exts = [ ".vet"; ".audit"; ".result" ]

let default_dir () =
  match Sys.getenv_opt "DIALEGG_VET_CACHE" with
  | Some "" -> None (* disk cache disabled *)
  | Some d -> Some d
  | None ->
    Some (Filename.concat (Filename.get_temp_dir_name ()) "dialegg-vet-cache")

let default_max_mb = 256

let max_bytes () =
  let mb =
    match Sys.getenv_opt "DIALEGG_CACHE_MAX_MB" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> default_max_mb)
    | None -> default_max_mb
  in
  mb * 1024 * 1024

let is_cache_entry name =
  List.exists (fun ext -> Filename.check_suffix name ext) cache_exts

(* Oldest-mtime-first eviction.  mtime is our recency signal: readers
   that hit an entry re-touch it (see the owning modules), so a pruned
   entry really is the least recently useful one.  Returns the bytes the
   scan counted minus those it freed; [None] if the scan failed. *)
let prune_total ~cap ~dir =
  try
    let entries =
      Array.to_list (Sys.readdir dir)
      |> List.filter_map (fun name ->
             if not (is_cache_entry name) then None
             else
               let path = Filename.concat dir name in
               match Unix.stat path with
               | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
                 Some (path, st_size, st_mtime)
               | _ -> None
               | exception Unix.Unix_error _ -> None)
    in
    let total = List.fold_left (fun a (_, s, _) -> a + s) 0 entries in
    let excess = ref (total - cap) in
    if !excess > 0 then begin
      (* oldest first; break mtime ties by path so eviction is stable *)
      let oldest =
        List.sort
          (fun (p1, _, t1) (p2, _, t2) ->
            match compare (t1 : float) t2 with 0 -> compare p1 p2 | c -> c)
          entries
      in
      List.iter
        (fun (path, size, _) ->
          if !excess > 0 then
            (* a concurrent pruner may have unlinked the entry between
               our readdir and here: ENOENT means the bytes are gone
               either way, so it still counts as freed.  Any other
               failure (permissions, read-only media) must NOT be
               credited, or we'd stop early with the cache still over
               its cap. *)
            match Unix.unlink path with
            | () -> excess := !excess - size
            | exception Unix.Unix_error (Unix.ENOENT, _, _) ->
              excess := !excess - size
            | exception Unix.Unix_error _ -> ())
        oldest
    end;
    Some (cap + min 0 !excess)
  with Sys_error _ | Unix.Unix_error _ -> None

let prune ?max ~dir () =
  let cap = match max with Some m -> m | None -> max_bytes () in
  ignore (prune_total ~cap ~dir : int option)

(* Per directory: the bytes its last scan left plus the bytes this
   process has committed there since.  Entries only leave a directory
   through eviction, an overwrite or a reader dropping a corrupt one, so
   with a single writer this never under-counts, and scanning only once
   it passes the cap evicts exactly what a scan after every commit
   would. *)
let estimates : (string, int) Hashtbl.t = Hashtbl.create 4

let note_commit ?max ~dir bytes =
  let cap = match max with Some m -> m | None -> max_bytes () in
  let est =
    match Hashtbl.find_opt estimates dir with
    | Some b when b + bytes <= cap -> Some (b + bytes)
    | _ -> prune_total ~cap ~dir
  in
  match est with
  | Some b -> Hashtbl.replace estimates dir b
  | None -> Hashtbl.remove estimates dir

(* Touch an entry a reader just used, so pruning sees it as fresh.
   Best-effort (read-only media). *)
let touch path = try Unix.utimes path 0. 0. with Unix.Unix_error _ -> ()

let fsync_dir dir =
  (* best-effort: some filesystems refuse to fsync a directory fd *)
  try
    let d = Unix.openfile dir [ O_RDONLY; O_CLOEXEC ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close d with Unix.Unix_error _ -> ())
      (fun () -> Unix.fsync d)
  with Unix.Unix_error _ -> ()

let write_entry ?max ~dir ~file emit =
  try
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    (* same directory as the destination so the rename cannot cross a
       filesystem boundary (rename is only atomic within one) *)
    let tmp = Filename.temp_file ~temp_dir:dir ".entry" ".tmp" in
    match
      let oc = open_out_bin tmp in
      let bytes =
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            emit oc;
            flush oc;
            Unix.fsync (Unix.descr_of_out_channel oc);
            pos_out oc)
      in
      Sys.rename tmp (Filename.concat dir file);
      bytes
    with
    | bytes ->
      fsync_dir dir;
      note_commit ?max ~dir bytes
    | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
  with _ -> ()
