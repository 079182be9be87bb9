(** Lock-striped, size-bounded cache with cost-driven admission and
    eviction — see the interface for the policy. *)

type ('k, 'v) entry = {
  value : 'v;
  weight : int;
  benefit : int;
  mutable tick : int;  (* last use; guarded by the stripe lock *)
}

type ('k, 'v) stripe = {
  lock : Mutex.t;
  tbl : ('k, ('k, 'v) entry) Hashtbl.t;
  mutable bytes : int;
}

type ('k, 'v) t = {
  stripes : ('k, 'v) stripe array;
  stripe_capacity : int;
  weight_of : 'v -> int;
  clock : int Atomic.t;
  stats : Stats.t;
}

let default_stripes = 8

let default_capacity = 16 * 1024 * 1024

let create ?(stripes = default_stripes) ?(capacity_bytes = default_capacity)
    ?(stats = Stats.create ()) ~weight () =
  if stripes < 1 then invalid_arg "Lru.create: stripes must be >= 1";
  if capacity_bytes < 1 then invalid_arg "Lru.create: capacity must be >= 1";
  {
    stripes =
      Array.init stripes (fun _ ->
          { lock = Mutex.create (); tbl = Hashtbl.create 16; bytes = 0 });
    stripe_capacity = max 1 (capacity_bytes / stripes);
    weight_of = weight;
    clock = Atomic.make 0;
    stats;
  }

let stripe_of t k = t.stripes.(Hashtbl.hash k mod Array.length t.stripes)

let locked stripe f =
  Mutex.lock stripe.lock;
  match f () with
  | v ->
    Mutex.unlock stripe.lock;
    v
  | exception e ->
    Mutex.unlock stripe.lock;
    raise e

let tick t = Atomic.fetch_and_add t.clock 1

let find ?(accept = fun _ -> true) t k =
  let stripe = stripe_of t k in
  let found =
    locked stripe @@ fun () ->
    match Hashtbl.find_opt stripe.tbl k with
    | Some e when accept e.value ->
      e.tick <- tick t;
      Some e.value
    | Some _ | None -> None
  in
  (match found with Some _ -> Stats.hit t.stats | None -> Stats.miss t.stats);
  found

let mem t k =
  let stripe = stripe_of t k in
  locked stripe @@ fun () -> Hashtbl.mem stripe.tbl k

(* Evicts the lowest-(benefit, tick) entry until the stripe fits.  The
   scan is linear, but runs only on over-budget inserts and stripes are
   small. *)
let shrink t stripe =
  while stripe.bytes > t.stripe_capacity do
    let victim =
      Hashtbl.fold
        (fun k e acc ->
          match acc with
          | Some (_, best) when (best.benefit, best.tick) <= (e.benefit, e.tick)
            ->
            acc
          | _ -> Some (k, e))
        stripe.tbl None
    in
    match victim with
    | None -> stripe.bytes <- 0 (* unreachable: bytes > 0 implies entries *)
    | Some (k, e) ->
      Hashtbl.remove stripe.tbl k;
      stripe.bytes <- stripe.bytes - e.weight;
      Stats.evict t.stats ~bytes:e.weight
  done

let put t ?(benefit = 1) k v =
  let weight = t.weight_of v in
  if benefit > 0 && weight <= t.stripe_capacity then begin
    let stripe = stripe_of t k in
    locked stripe @@ fun () ->
    (match Hashtbl.find_opt stripe.tbl k with
    | Some old ->
      stripe.bytes <- stripe.bytes - old.weight + weight;
      Stats.replace t.stats ~old_bytes:old.weight ~bytes:weight
    | None ->
      stripe.bytes <- stripe.bytes + weight;
      Stats.insert t.stats ~bytes:weight);
    Hashtbl.replace stripe.tbl k { value = v; weight; benefit; tick = tick t };
    shrink t stripe
  end

let remove t k =
  let stripe = stripe_of t k in
  locked stripe @@ fun () ->
  match Hashtbl.find_opt stripe.tbl k with
  | None -> ()
  | Some e ->
    Hashtbl.remove stripe.tbl k;
    stripe.bytes <- stripe.bytes - e.weight;
    Stats.invalidate t.stats ~bytes:e.weight

let filter_in_place t keep =
  Array.fold_left
    (fun removed stripe ->
      locked stripe @@ fun () ->
      let stale =
        Hashtbl.fold
          (fun k e acc -> if keep k e.value then acc else (k, e) :: acc)
          stripe.tbl []
      in
      List.iter
        (fun (k, e) ->
          Hashtbl.remove stripe.tbl k;
          stripe.bytes <- stripe.bytes - e.weight;
          Stats.invalidate t.stats ~bytes:e.weight)
        stale;
      removed + List.length stale)
    0 t.stripes

let clear t = ignore (filter_in_place t (fun _ _ -> false))

let length t =
  Array.fold_left
    (fun acc stripe -> acc + locked stripe (fun () -> Hashtbl.length stripe.tbl))
    0 t.stripes

let bytes_used t =
  Array.fold_left
    (fun acc stripe -> acc + locked stripe (fun () -> stripe.bytes))
    0 t.stripes

let stats t = t.stats

let validate t =
  Array.iteri
    (fun i stripe ->
      locked stripe @@ fun () ->
      let total = Hashtbl.fold (fun _ e acc -> acc + e.weight) stripe.tbl 0 in
      if total <> stripe.bytes || stripe.bytes < 0 then
        invalid_arg
          (Printf.sprintf
             "Lru.validate: stripe %d accounts %d bytes but holds %d" i
             stripe.bytes total))
    t.stripes
