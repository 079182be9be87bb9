(** The one storage loader behind every entry point ([Blas.Loader]):
    CLI subcommands and the network server's document collection load
    through the same sniff-and-parse helper.  Every call builds or
    opens a fresh storage, which the caller owns. *)

(** [load ?rw ?cache_pages ?stripes path] — the storage for [path]: a
    database file when it starts with the "BLASDB1" magic (opened
    read-only unless [rw]; [cache_pages] bounds its page cache, split
    into [stripes] independently locked stripes, default 1), parsed XML
    otherwise. *)
val load :
  ?rw:bool ->
  ?cache_pages:int ->
  ?stripes:int ->
  string ->
  (Storage.t, string) result

(** [load_dir ?rw ?cache_pages ?stripes ?keep dir] — every [*.xml] / [*.blasdb]
    file of [dir] as a named document list (basename without
    extension), sorted by name.  [keep] filters by document name before
    the file is opened (sharded servers must not lock files they do
    not host). *)
val load_dir :
  ?rw:bool ->
  ?cache_pages:int ->
  ?stripes:int ->
  ?keep:(string -> bool) ->
  string ->
  ((string * Storage.t) list, string) result
