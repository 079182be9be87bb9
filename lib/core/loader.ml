(** The one storage loader behind every entry point — [Blas.Loader].

    Before the serving layer existed, each CLI subcommand carried its
    own copy of the read-file / sniff-magic / parse-or-deserialize
    sequence; the server's shared-collection path and every subcommand
    now route through {!load}, so a format change (or a new on-disk
    representation) lands in exactly one place.

    [load] accepts two input kinds: database files (magic "BLASDB1",
    see {!Database} — sniffed first, since opening one must NOT slurp
    the whole file) and XML documents.  {!load_dir} hosts a directory
    the way [blas serve --docs DIR] does — every [*.xml] and [*.blasdb]
    file, named by basename without extension.

    Every call builds or opens a fresh storage: each CLI command loads
    its file once, [serve] loads its directory once, and the cluster
    layer takes storage thunks, so nothing loads one unchanged file
    twice in a process.  The caller owns the storage and closes it. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(** [load ?rw ?cache_pages ?stripes path] — the storage for [path] (XML
    or database file).  [rw] (default false) opens database files
    read-write so updates reach the file; [cache_pages] bounds their
    page cache and [stripes] (default 1) splits it into independently
    locked stripes. *)
let load ?(rw = false) ?cache_pages ?stripes path =
  try
    if Database.looks_like_db path then
      Ok
        (Database.open_ ?cache_pages ?stripes
           ~mode:(if rw then Database.Rw else Database.Ro)
           ~path ())
    else Ok (Storage.of_string (read_file path))
  with
  | Blas_xml.Types.Parse_error (pos, msg) ->
    Error
      (Printf.sprintf "%s: %s at %s" path msg
         (Blas_xml.Types.position_to_string pos))
  | Database.Corrupt msg -> Error (Printf.sprintf "%s: %s" path msg)
  | Sys_error msg -> Error msg
  | Unix.Unix_error (err, fn, _) ->
    Error (Printf.sprintf "%s: %s (%s)" path (Unix.error_message err) fn)

let doc_name path = Filename.remove_extension (Filename.basename path)

(** [load_dir ?rw ?cache_pages ?stripes ?keep dir] — every [*.xml] / [*.blasdb]
    file of [dir] as a named document list, sorted by name;
    errors name the failing file.  [keep] filters by document name
    BEFORE loading — a sharded server must not even open (and lock)
    files it does not host. *)
let load_dir ?rw ?cache_pages ?stripes ?(keep = fun _ -> true) dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
    let files =
      Array.to_list entries
      |> List.filter (fun f ->
             Filename.check_suffix f ".xml"
             || Filename.check_suffix f ".blasdb")
      |> List.filter (fun f -> keep (doc_name f))
      |> List.sort compare
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | f :: rest -> (
        match load ?rw ?cache_pages ?stripes (Filename.concat dir f) with
        | Error msg -> Error msg
        | Ok storage -> go ((doc_name f, storage) :: acc) rest)
    in
    go [] files
