(** An in-memory B+ tree with duplicate keys, the index structure behind
    the paper's storage ("B+ tree indexes are built on start, plabel and
    data", Section 4).

    Keys live only in internal nodes for routing; all bindings sit in a
    linked chain of leaves, so range scans are a descent plus a leaf walk.
    Deletion is physical but does not rebalance (the workload is
    bulk-load-then-query; lazy deletion keeps correctness and the test
    suite checks it).

    Routing invariant: every key in [kids.(j)] is [<= ikeys.(j)].  Inserts
    route right at equality and lookups route left, so duplicates are
    never missed. *)

module type ORDERED = sig
  type t

  val compare : t -> t -> int
end

module Make (Key : ORDERED) = struct
  (* Nodes split when they exceed [max_keys]. *)
  let max_keys = 32

  type 'v leaf = {
    mutable lkeys : Key.t array;
    mutable lvals : 'v array;
    mutable next : 'v leaf option;
  }

  type 'v node =
    | Leaf of 'v leaf
    | Internal of 'v internal

  and 'v internal = { mutable ikeys : Key.t array; mutable kids : 'v node array }

  type 'v t = { mutable root : 'v node; mutable size : int }

  let create () = { root = Leaf { lkeys = [||]; lvals = [||]; next = None }; size = 0 }

  let length t = t.size

  let array_insert a i x =
    let n = Array.length a in
    let r = Array.make (n + 1) x in
    Array.blit a 0 r 0 i;
    Array.blit a i r (i + 1) (n - i);
    r

  let array_remove a i =
    let n = Array.length a in
    let r = Array.sub a 0 (n - 1) in
    Array.blit a (i + 1) r i (n - 1 - i);
    r

  (* Position after the last key <= k (insertion point that keeps equal
     keys in arrival order). *)
  let upper_bound keys k =
    let lo = ref 0 and hi = ref (Array.length keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Key.compare keys.(mid) k <= 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* First position with key >= k. *)
  let lower_bound keys k =
    let lo = ref 0 and hi = ref (Array.length keys) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Key.compare keys.(mid) k < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Insert routing: child taking keys strictly below the first separator
     that exceeds k; equal keys go right so the routing invariant holds. *)
  let route_insert ikeys k =
    let i = upper_bound ikeys k in
    min i (Array.length ikeys)

  (* Lookup routing: leftmost child whose separator admits k. *)
  let route_lookup ikeys k =
    let i = lower_bound ikeys k in
    min i (Array.length ikeys)

  let rec insert_node node k v =
    match node with
    | Leaf l ->
      let i = upper_bound l.lkeys k in
      l.lkeys <- array_insert l.lkeys i k;
      l.lvals <- array_insert l.lvals i v;
      if Array.length l.lkeys <= max_keys then None
      else begin
        let n = Array.length l.lkeys in
        let mid = n / 2 in
        let right =
          {
            lkeys = Array.sub l.lkeys mid (n - mid);
            lvals = Array.sub l.lvals mid (n - mid);
            next = l.next;
          }
        in
        l.lkeys <- Array.sub l.lkeys 0 mid;
        l.lvals <- Array.sub l.lvals 0 mid;
        l.next <- Some right;
        Some (right.lkeys.(0), Leaf right)
      end
    | Internal n -> (
      let i = route_insert n.ikeys k in
      match insert_node n.kids.(i) k v with
      | None -> None
      | Some (sep, rnode) ->
        n.ikeys <- array_insert n.ikeys i sep;
        n.kids <- array_insert n.kids (i + 1) rnode;
        if Array.length n.ikeys <= max_keys then None
        else begin
          let nk = Array.length n.ikeys in
          let mid = nk / 2 in
          let up = n.ikeys.(mid) in
          let right =
            Internal
              {
                ikeys = Array.sub n.ikeys (mid + 1) (nk - mid - 1);
                kids = Array.sub n.kids (mid + 1) (nk - mid);
              }
          in
          n.ikeys <- Array.sub n.ikeys 0 mid;
          n.kids <- Array.sub n.kids 0 (mid + 1);
          Some (up, right)
        end)

  let insert t k v =
    (match insert_node t.root k v with
    | None -> ()
    | Some (sep, rnode) ->
      t.root <- Internal { ikeys = [| sep |]; kids = [| t.root; rnode |] });
    t.size <- t.size + 1

  (* Leftmost leaf that can contain k (or the leftmost leaf overall for
     [None]). *)
  let rec find_leaf node k =
    match node with
    | Leaf l -> l
    | Internal n ->
      let i = match k with None -> 0 | Some k -> route_lookup n.ikeys k in
      find_leaf n.kids.(i) k

  (** [fold_range t ~lo ~hi ~init ~f] folds over bindings with
      [lo <= key <= hi] in key order ([None] bounds are infinite). *)
  let fold_range t ~lo ~hi ~init ~f =
    let above_hi k = match hi with None -> false | Some h -> Key.compare k h > 0 in
    let below_lo k = match lo with None -> false | Some l -> Key.compare k l < 0 in
    let rec walk leaf i acc =
      if i >= Array.length leaf.lkeys then
        match leaf.next with None -> acc | Some next -> walk next 0 acc
      else begin
        let k = leaf.lkeys.(i) in
        if above_hi k then acc
        else if below_lo k then walk leaf (i + 1) acc
        else walk leaf (i + 1) (f acc k leaf.lvals.(i))
      end
    in
    walk (find_leaf t.root lo) 0 init

  (** All values bound to [k], in insertion order. *)
  let find t k =
    List.rev
      (fold_range t ~lo:(Some k) ~hi:(Some k) ~init:[] ~f:(fun acc _ v -> v :: acc))

  let mem t k = find t k <> []

  let iter t ~f = fold_range t ~lo:None ~hi:None ~init:() ~f:(fun () k v -> f k v)

  let to_list t =
    List.rev (fold_range t ~lo:None ~hi:None ~init:[] ~f:(fun acc k v -> (k, v) :: acc))

  let min_binding t =
    fold_range t ~lo:None ~hi:None ~init:None ~f:(fun acc k v ->
        match acc with Some _ -> acc | None -> Some (k, v))

  (** [delete t ~eq k v] removes the first binding of [k] whose value
      satisfies [eq v]; returns whether a binding was removed.  Leaves are
      not rebalanced (see the module comment). *)
  let delete t ~eq k =
    let rec walk leaf =
      let n = Array.length leaf.lkeys in
      let rec scan i =
        if i >= n then
          match leaf.next with
          | Some next when n = 0 || Key.compare leaf.lkeys.(n - 1) k <= 0 -> walk next
          | _ -> false
        else
          let c = Key.compare leaf.lkeys.(i) k in
          if c > 0 then false
          else if c = 0 && eq leaf.lvals.(i) then begin
            leaf.lkeys <- array_remove leaf.lkeys i;
            leaf.lvals <- array_remove leaf.lvals i;
            t.size <- t.size - 1;
            true
          end
          else scan (i + 1)
      in
      scan (lower_bound leaf.lkeys k)
    in
    walk (find_leaf t.root (Some k))

  (** [of_sorted bindings] bulk-loads; the input need not be sorted (it is
      inserted in order), but sorted input produces better-packed leaves. *)
  let of_seq bindings =
    let t = create () in
    Seq.iter (fun (k, v) -> insert t k v) bindings;
    t

  (** Structural well-formedness, used by the property tests: sorted
      leaves, respected routing invariant, uniform leaf depth, intact leaf
      chain. *)
  let check_invariants t =
    let sorted keys =
      let ok = ref true in
      for i = 0 to Array.length keys - 2 do
        if Key.compare keys.(i) keys.(i + 1) > 0 then ok := false
      done;
      !ok
    in
    let rec depth = function
      | Leaf _ -> 0
      | Internal n -> 1 + depth n.kids.(0)
    in
    let d = depth t.root in
    let rec max_key = function
      | Leaf l ->
        if Array.length l.lkeys = 0 then None
        else Some l.lkeys.(Array.length l.lkeys - 1)
      | Internal n ->
        let rec last i = if i < 0 then None else
            match max_key n.kids.(i) with None -> last (i - 1) | some -> some
        in
        last (Array.length n.kids - 1)
    in
    let rec check node level =
      match node with
      | Leaf l -> sorted l.lkeys && level = d
      | Internal n ->
        Array.length n.kids = Array.length n.ikeys + 1
        && sorted n.ikeys
        && Array.for_all (fun kid -> check kid (level + 1)) n.kids
        && begin
             (* Routing invariant: max of kids.(j) <= ikeys.(j). *)
             let ok = ref true in
             Array.iteri
               (fun j sep ->
                 match max_key n.kids.(j) with
                 | Some m when Key.compare m sep > 0 -> ok := false
                 | _ -> ())
               n.ikeys;
             !ok
           end
    in
    let chain_sorted () =
      let leftmost = find_leaf t.root None in
      let rec go leaf prev count =
        let n = Array.length leaf.lkeys in
        let ok = ref true in
        let prev = ref prev in
        for i = 0 to n - 1 do
          (match !prev with
          | Some p when Key.compare p leaf.lkeys.(i) > 0 -> ok := false
          | _ -> ());
          prev := Some leaf.lkeys.(i)
        done;
        if not !ok then false
        else
          match leaf.next with
          | None -> count + n = t.size
          | Some next -> go next !prev (count + n)
      in
      go leftmost None 0
    in
    check t.root 0 && chain_sorted ()
end
