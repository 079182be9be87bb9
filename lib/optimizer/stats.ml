module Dataguide = Blas_xml.Dataguide

type node_view = { nv_tag : string; nv_data : string option }

type reservoir = {
  mutable values : string array;  (* at most capacity entries *)
  mutable filled : int;
  mutable seen : int;  (* values offered, >= filled *)
}

type t = {
  st_seed : int;
  st_epoch : int;
  st_guide : Dataguide.t;  (* the counted guide collected against *)
  st_nodes : int;  (* its total count *)
  st_sample_size : int;
  st_samples : (string, reservoir) Hashtbl.t;
  st_edits : int Atomic.t;  (* nodes touched by edits since collection *)
}

let global_seed = Atomic.make 0x5eed
let default_seed () = Atomic.get global_seed
let set_default_seed s = Atomic.set global_seed s

(* splitmix64: a tiny deterministic generator so sampling never depends
   on global Random state. *)
let splitmix state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
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

let collect ?seed ?(epoch = 0) ?(sample_size = default_sample_size) ~guide
    nodes =
  let seed = match seed with Some s -> s | None -> default_seed () in
  let rng = ref (Int64.of_int seed) in
  let samples = Hashtbl.create 64 in
  List.iter
    (fun nv ->
      match nv.nv_data with
      | None -> ()
      | Some v ->
          let r =
            match Hashtbl.find_opt samples nv.nv_tag with
            | Some r -> r
            | None ->
                let r = { values = Array.make sample_size ""; filled = 0; seen = 0 } in
                Hashtbl.add samples nv.nv_tag r;
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
            if j < sample_size then r.values.(j) <- v)
    nodes;
  {
    st_seed = seed;
    st_epoch = epoch;
    st_guide = guide;
    st_nodes = total guide;
    st_sample_size = sample_size;
    st_samples = samples;
    st_edits = Atomic.make 0;
  }

let seed t = t.st_seed
let epoch t = t.st_epoch
let node_count t = t.st_nodes
let sample_size t = t.st_sample_size

let guide t = t.st_guide

let equals_floor = 0.005

let selectivity t ~tag c =
  match Hashtbl.find_opt t.st_samples tag with
  | None -> ( match c with `Equals _ -> equals_floor | `Differs _ -> 1.0)
  | Some r ->
      let hits = ref 0 in
      let v = match c with `Equals v | `Differs v -> v in
      for i = 0 to r.filled - 1 do
        if String.equal r.values.(i) v then incr hits
      done;
      (* Laplace smoothing so a miss in the sample never prices to zero *)
      let eq = (float_of_int !hits +. 1.) /. (float_of_int r.filled +. 2.) in
      let s = match c with `Equals _ -> eq | `Differs _ -> 1. -. eq in
      Float.max equals_floor (Float.min 1.0 s)

let sample t ~tag =
  match Hashtbl.find_opt t.st_samples tag with
  | None -> []
  | Some r -> Array.to_list (Array.sub r.values 0 r.filled)

let sample_seen t ~tag =
  match Hashtbl.find_opt t.st_samples tag with None -> 0 | Some r -> r.seen

let sampled_tags t =
  Hashtbl.fold (fun tag _ acc -> tag :: acc) t.st_samples []
  |> List.sort compare

let stale_threshold = 0.2
let note_edits t n = if n > 0 then ignore (Atomic.fetch_and_add t.st_edits n)
let edits t = Atomic.get t.st_edits

let stale_fraction t =
  float_of_int (edits t) /. float_of_int (max 1 t.st_nodes)

let is_stale t = stale_fraction t >= stale_threshold

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

(* BSTAT2: the blob keeps what the catalog's guide does not — seed,
   epoch, sample size, staleness and the reservoirs. *)
let magic = "BSTAT2"

let to_string t =
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  put_varint b t.st_seed;
  put_varint b t.st_epoch;
  put_varint b t.st_sample_size;
  put_varint b (edits t);
  let samples =
    Hashtbl.fold (fun tag r acc -> (tag, r) :: acc) t.st_samples []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  put_varint b (List.length samples);
  List.iter
    (fun (tag, r) ->
      put_string b tag;
      put_varint b r.seen;
      put_varint b r.filled;
      for i = 0 to r.filled - 1 do
        put_string b r.values.(i)
      done)
    samples;
  Buffer.contents b

let of_string ~guide s =
  if String.length s < String.length magic
     || String.sub s 0 (String.length magic) <> magic
  then invalid_arg "Stats.of_string: bad magic";
  let cur = { src = s; pos = String.length magic } in
  let st_seed = get_varint cur in
  let st_epoch = get_varint cur in
  let st_sample_size = get_varint cur in
  let edits = get_varint cur in
  let nsamples = get_varint cur in
  let samples = Hashtbl.create (max 16 nsamples) in
  for _ = 1 to nsamples do
    let tag = get_string cur in
    let seen = get_varint cur in
    let filled = get_varint cur in
    let values = Array.make (max 1 st_sample_size) "" in
    for i = 0 to filled - 1 do
      values.(i) <- get_string cur
    done;
    Hashtbl.add samples tag { values; filled; seen }
  done;
  {
    st_seed;
    st_epoch;
    st_guide = guide;
    st_nodes = total guide;
    st_sample_size;
    st_samples = samples;
    st_edits = Atomic.make edits;
  }

let equal a b =
  String.equal (to_string a) (to_string b)
  && Dataguide.path_counts a.st_guide = Dataguide.path_counts b.st_guide

let pp ppf t =
  Fmt.pf ppf "@[<v>stats: %d nodes, %d tags, %d paths (seed %#x, epoch %d)@,"
    t.st_nodes
    (List.length (Dataguide.distinct_tags t.st_guide))
    (List.length (Dataguide.all_paths t.st_guide))
    t.st_seed t.st_epoch;
  Fmt.pf ppf "staleness: %d edits (%.1f%% of nodes, threshold %.0f%%)@,"
    (edits t) (100. *. stale_fraction t) (100. *. stale_threshold);
  Fmt.pf ppf "sampled tags:@,";
  List.iter
    (fun tag ->
      Fmt.pf ppf "  %-20s %d/%d values@," tag
        (List.length (sample t ~tag))
        (sample_seen t ~tag))
    (sampled_tags t);
  Fmt.pf ppf "@]"

let to_json t =
  let open Blas_obs.Json in
  Obj
    [
      ("seed", Int t.st_seed);
      ("epoch", Int t.st_epoch);
      ("nodes", Int t.st_nodes);
      ("sample_size", Int t.st_sample_size);
      ("edits", Int (edits t));
      ("stale_fraction", Float (stale_fraction t));
      ("stale", Bool (is_stale t));
      ( "paths",
        List
          (List.map
             (fun (path, c) ->
               Obj
                 [
                   ("path", Str ("/" ^ String.concat "/" path)); ("card", Int c);
                 ])
             (Dataguide.path_counts t.st_guide)) );
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
