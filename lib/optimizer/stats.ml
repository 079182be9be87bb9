module Dataguide = Blas_xml.Dataguide

(* A tag's reservoir while [collect] or [of_string] fills it. *)
type draft = {
  mutable values : string array;  (* at most capacity entries *)
  mutable filled : int;
  mutable seen : int;  (* values offered, >= filled *)
}

(* A tag's reservoir once the statistics exist: its [kept] values sit
   in the samples blob from offset [at], each a varint length and its
   bytes. *)
type reservoir = { seen : int; kept : int; at : int }

type t = {
  st_seed : int;
  st_epoch : int;
  st_sample_size : int;
  st_samples : (string, reservoir) Hashtbl.t;
  st_blob : string;
      (* the reservoirs, encoded once (they never change after
         [collect], [of_string] or [of_parts]); the only copy of the
         sampled values *)
  st_edits : int Atomic.t;  (* nodes touched by edits since collection *)
}

(* --- binary codec ------------------------------------------------------ *)
(* Self-contained varint wire format (independent of the pager's codec so
   the optimizer library stays layered below lib/core). *)

let put_varint b n =
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Buffer.add_char b (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char b (Char.chr !n)

let put_string b s =
  put_varint b (String.length s);
  Buffer.add_string b s

type cursor = { src : string; mutable pos : int }

let get_byte cur =
  if cur.pos >= String.length cur.src then
    invalid_arg "Stats.of_string: truncated";
  let c = Char.code cur.src.[cur.pos] in
  cur.pos <- cur.pos + 1;
  c

let get_varint cur =
  let rec go shift acc =
    let c = get_byte cur in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 <> 0 then go (shift + 7) acc else acc
  in
  go 0 0

let get_string cur =
  let n = get_varint cur in
  if cur.pos + n > String.length cur.src then
    invalid_arg "Stats.of_string: truncated";
  let s = String.sub cur.src cur.pos n in
  cur.pos <- cur.pos + n;
  s

(* Encodes the drafts as the reservoirs part — their count, then each
   tag in order with its seen and kept counts and the kept values — and
   indexes each tag's values in that encoding. *)
let freeze drafts =
  let b = Buffer.create 1024 in
  let sorted =
    Hashtbl.fold (fun tag d acc -> (tag, d) :: acc) drafts []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let samples = Hashtbl.create (max 16 (List.length sorted)) in
  put_varint b (List.length sorted);
  List.iter
    (fun (tag, (d : draft)) ->
      put_string b tag;
      put_varint b d.seen;
      put_varint b d.filled;
      Hashtbl.add samples tag
        { seen = d.seen; kept = d.filled; at = Buffer.length b };
      for i = 0 to d.filled - 1 do
        put_string b d.values.(i)
      done)
    sorted;
  (samples, Buffer.contents b)

(* Whether [blob] holds the bytes of [v] at [pos]. *)
let holds_at blob pos v =
  let n = String.length v and i = ref 0 in
  while !i < n && blob.[pos + !i] = v.[!i] do
    incr i
  done;
  !i = n

(* Calls [f pos len] on each of [r]'s values, the bytes of [blob] at
   [pos, pos + len). *)
let iter_kept blob r f =
  let cur = { src = blob; pos = r.at } in
  for _ = 1 to r.kept do
    let len = get_varint cur in
    f cur.pos len;
    cur.pos <- cur.pos + len
  done

let global_seed = Atomic.make 0x5eed
let default_seed () = Atomic.get global_seed
let set_default_seed s = Atomic.set global_seed s

(* splitmix64: a tiny deterministic generator so sampling never depends
   on global Random state.  The state lives in 8 bytes and the step is
   inlined into [draw], so a draw allocates no boxed [int64]. *)
let[@inline] splitmix state =
  let open Int64 in
  let z = add (Bytes.get_int64_ne state 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne state 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* uniform draw in [0, bound) *)
let draw state bound =
  Int64.to_int (Int64.rem (Int64.logand (splitmix state) Int64.max_int)
                  (Int64.of_int bound))

let default_sample_size = 64

(* [tags = []]: the suffix every source path ends in. *)
let total guide = Dataguide.suffix_count guide ~absolute:false ~tags:[]

let collect ?seed ?(epoch = 0) ?(sample_size = default_sample_size) iter =
  let seed = match seed with Some s -> s | None -> default_seed () in
  let rng = Bytes.create 8 in
  Bytes.set_int64_ne rng 0 (Int64.of_int seed);
  let drafts = Hashtbl.create 64 in
  iter (fun tag v ->
      let r : draft =
        match Hashtbl.find drafts tag with
        | r -> r
        | exception Not_found ->
            let r = { values = Array.make sample_size ""; filled = 0; seen = 0 } in
            Hashtbl.add drafts tag r;
            r
      in
      r.seen <- r.seen + 1;
      if r.filled < sample_size then begin
        r.values.(r.filled) <- v;
        r.filled <- r.filled + 1
      end
      else
        (* classic reservoir: replace slot j with probability k/seen *)
        let j = draw rng r.seen in
        if j < sample_size then r.values.(j) <- v);
  let samples, blob = freeze drafts in
  {
    st_seed = seed;
    st_epoch = epoch;
    st_sample_size = sample_size;
    st_samples = samples;
    st_blob = blob;
    st_edits = Atomic.make 0;
  }

let seed t = t.st_seed
let epoch t = t.st_epoch
let sample_size t = t.st_sample_size

let equals_floor = 0.005

let selectivity t ~tag c =
  match Hashtbl.find_opt t.st_samples tag with
  | None -> ( match c with `Equals _ -> equals_floor | `Differs _ -> 1.0)
  | Some r ->
      let hits = ref 0 in
      let v = match c with `Equals v | `Differs v -> v in
      iter_kept t.st_blob r (fun pos len ->
          if len = String.length v && holds_at t.st_blob pos v then incr hits);
      (* Laplace smoothing so a miss in the sample never prices to zero *)
      let eq = (float_of_int !hits +. 1.) /. (float_of_int r.kept +. 2.) in
      let s = match c with `Equals _ -> eq | `Differs _ -> 1. -. eq in
      Float.max equals_floor (Float.min 1.0 s)

let sample t ~tag =
  match Hashtbl.find_opt t.st_samples tag with
  | None -> []
  | Some r ->
      let values = ref [] in
      iter_kept t.st_blob r (fun pos len ->
          values := String.sub t.st_blob pos len :: !values);
      List.rev !values

let sample_seen t ~tag =
  match Hashtbl.find_opt t.st_samples tag with None -> 0 | Some r -> r.seen

let sampled_tags t =
  Hashtbl.fold (fun tag _ acc -> tag :: acc) t.st_samples []
  |> List.sort compare

let stale_threshold = 0.2
let note_edits t n = if n > 0 then ignore (Atomic.fetch_and_add t.st_edits n)
let edits t = Atomic.get t.st_edits

let stale_fraction t ~guide =
  float_of_int (edits t) /. float_of_int (max 1 (total guide))

let is_stale t ~guide = stale_fraction t ~guide >= stale_threshold

(* BSTAT2: the blob keeps what the catalog's guide does not — seed,
   epoch, sample size, staleness and the reservoirs.  It is two parts:
   the header (magic, seed, epoch, sample size, edit count), which
   moves with every commit, and the reservoirs ([st_blob]), which move
   only with a resample.  A v7 catalog stores them apart, at opposite
   ends of its body; {!to_string} is the header followed by the
   reservoirs, the one blob an older catalog holds. *)
let magic = "BSTAT2"

let add_header b t =
  Buffer.add_string b magic;
  put_varint b t.st_seed;
  put_varint b t.st_epoch;
  put_varint b t.st_sample_size;
  put_varint b (edits t)

let reservoirs t = t.st_blob

let to_string t =
  let b = Buffer.create (32 + String.length t.st_blob) in
  add_header b t;
  Buffer.add_string b t.st_blob;
  Buffer.contents b

(* The header's fields, from the start of [cur]. *)
let read_header cur =
  let s = cur.src in
  if String.length s < String.length magic
     || String.sub s 0 (String.length magic) <> magic
  then invalid_arg "Stats.of_string: bad magic";
  cur.pos <- String.length magic;
  let seed = get_varint cur in
  let epoch = get_varint cur in
  let sample_size = get_varint cur in
  let edits = get_varint cur in
  (seed, epoch, sample_size, edits)

(* The statistics of a header's fields over the reservoirs at [cur]. *)
let of_header (st_seed, st_epoch, st_sample_size, edits) cur =
  let nsamples = get_varint cur in
  let drafts = Hashtbl.create (max 16 nsamples) in
  for _ = 1 to nsamples do
    let tag = get_string cur in
    let seen = get_varint cur in
    let filled = get_varint cur in
    if filled > max 1 st_sample_size then
      invalid_arg "Stats.of_string: reservoir overflow";
    let values = Array.init filled (fun _ -> get_string cur) in
    Hashtbl.add drafts tag { values; filled; seen }
  done;
  let samples, blob = freeze drafts in
  {
    st_seed;
    st_epoch;
    st_sample_size;
    st_samples = samples;
    st_blob = blob;
    st_edits = Atomic.make edits;
  }

let of_string s =
  let cur = { src = s; pos = 0 } in
  let header = read_header cur in
  of_header header cur

let of_parts ~header ~reservoirs =
  let fields = read_header { src = header; pos = 0 } in
  of_header fields { src = reservoirs; pos = 0 }

let equal a b = String.equal (to_string a) (to_string b)

let pp ~guide ppf t =
  Fmt.pf ppf "@[<v>stats: %d nodes, %d tags, %d paths (seed %#x, epoch %d)@,"
    (total guide)
    (List.length (Dataguide.distinct_tags guide))
    (Dataguide.path_count guide)
    t.st_seed t.st_epoch;
  Fmt.pf ppf "staleness: %d edits (%.1f%% of nodes, threshold %.0f%%)@,"
    (edits t) (100. *. stale_fraction t ~guide) (100. *. stale_threshold);
  Fmt.pf ppf "sampled tags:@,";
  List.iter
    (fun tag ->
      Fmt.pf ppf "  %-20s %d/%d values@," tag
        (List.length (sample t ~tag))
        (sample_seen t ~tag))
    (sampled_tags t);
  Fmt.pf ppf "@]"

let to_json ~guide t =
  let open Blas_obs.Json in
  Obj
    [
      ("seed", Int t.st_seed);
      ("epoch", Int t.st_epoch);
      ("nodes", Int (total guide));
      ("sample_size", Int t.st_sample_size);
      ("edits", Int (edits t));
      ("stale_fraction", Float (stale_fraction t ~guide));
      ("stale", Bool (is_stale t ~guide));
      ( "paths",
        List
          (List.map
             (fun (path, c) ->
               Obj
                 [
                   ("path", Str ("/" ^ String.concat "/" path)); ("card", Int c);
                 ])
             (Dataguide.path_counts guide)) );
      ( "samples",
        Obj
          (List.map
             (fun tag ->
               ( tag,
                 Obj
                   [
                     ("seen", Int (sample_seen t ~tag));
                     ("kept", Int (List.length (sample t ~tag)));
                   ] ))
             (sampled_tags t)) );
    ]
