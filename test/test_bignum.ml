(** Unit and property tests for {!Bignum}, the arbitrary-precision
    naturals behind the paper's P-labels in the test reference
    ({!Plabel}). *)

module B = Bignum

let b = B.of_int

let s = B.to_string

open QCheck2.Gen

(* Non-negative ints whose products still fit, for model-based checks. *)
let small = int_range 0 1_000_000

let medium = int_range 0 (1 lsl 40)

let unit_tests =
  [
    ( "zero and one",
      fun () ->
        Test_util.check_string "zero" "0" (s B.zero);
        Test_util.check_string "one" "1" (s B.one);
        Test_util.check_bool "is_zero" true (B.is_zero B.zero);
        Test_util.check_bool "one not zero" false (B.is_zero B.one) );
    ( "of_int/to_string",
      fun () ->
        Test_util.check_string "42" "42" (s (b 42));
        Test_util.check_string "max_int" (string_of_int max_int) (s (b max_int)) );
    ( "of_string round trip",
      fun () ->
        let big = "123456789012345678901234567890" in
        Test_util.check_string "huge" big (s (B.of_string big)) );
    ( "of_string rejects and pads",
      fun () ->
        Alcotest.check_raises "empty"
          (Invalid_argument "Bignum.of_string: empty") (fun () ->
            ignore (B.of_string ""));
        List.iter
          (fun bad ->
            Alcotest.check_raises bad
              (Invalid_argument "Bignum.of_string: not a digit") (fun () ->
                ignore (B.of_string bad)))
          [ "-1"; "12a"; "1234567890x"; " 7" ];
        Test_util.check_string "007" "7" (s (B.of_string "007"));
        Test_util.check_string "zeros" "0" (s (B.of_string "0000000000"));
        Test_util.check_string "9 digits" "999999999"
          (s (B.of_string "999999999"));
        Test_util.check_string "10 digits" "1000000000"
          (s (B.of_string "1000000000")) );
    ( "pow_int",
      fun () ->
        Test_util.check_string "2^10" "1024" (s (B.pow_int 2 10));
        Test_util.check_string "78^12" "50714860157241037295616"
          (s (B.pow_int 78 12));
        Test_util.check_string "x^0" "1" (s (B.pow_int 999 0)) );
    ( "sub raises below zero",
      fun () ->
        Alcotest.check_raises "negative" (Invalid_argument "Bignum.sub: negative result")
          (fun () -> ignore (B.sub (b 3) (b 4))) );
    ( "divmod_int rejects bad divisors",
      fun () ->
        Alcotest.check_raises "zero"
          (Invalid_argument "Bignum.divmod_int: divisor out of range") (fun () ->
            ignore (B.divmod_int (b 10) 0)) );
    ( "div_int_exact detects remainders",
      fun () ->
        Alcotest.check_raises "inexact"
          (Invalid_argument "Bignum.div_int_exact: inexact division") (fun () ->
            ignore (B.div_int_exact (b 10) 3)) );
    ( "to_int_opt",
      fun () ->
        Test_util.check_bool "small fits" true (B.to_int_opt (b 123) = Some 123);
        Test_util.check_bool "huge does not fit" true
          (B.to_int_opt (B.pow_int 78 12) = None) );
    ( "min max",
      fun () ->
        Test_util.check_string "min" "3" (s (B.min (b 3) (b 7)));
        Test_util.check_string "max" "7" (s (B.max (b 3) (b 7))) );
  ]

let suite =
  let open QCheck2 in
  let q name gen law = QCheck_alcotest.to_alcotest (Test.make ~count:500 ~name gen law) in
  List.map (fun (name, f) -> Alcotest.test_case name `Quick f) unit_tests
  @ [
      q "add matches int" (Gen.pair medium medium) (fun (x, y) ->
          s (B.add (b x) (b y)) = string_of_int (x + y));
      q "sub matches int" (Gen.pair medium medium) (fun (x, y) ->
          let hi = max x y and lo = min x y in
          s (B.sub (b hi) (b lo)) = string_of_int (hi - lo));
      q "mul matches int" (Gen.pair small small) (fun (x, y) ->
          s (B.mul (b x) (b y)) = string_of_int (x * y));
      q "mul_int matches int" (Gen.pair small small) (fun (x, y) ->
          s (B.mul_int (b x) y) = string_of_int (x * y));
      q "divmod matches int" (Gen.pair medium (Gen.int_range 1 1_000_000))
        (fun (x, y) ->
          let quot, rem = B.divmod_int (b x) y in
          s quot = string_of_int (x / y) && rem = x mod y);
      q "compare matches int" (Gen.pair medium medium) (fun (x, y) ->
          B.compare (b x) (b y) = Stdlib.compare x y);
      q "to_string/of_string round trip" (Gen.pair medium medium) (fun (x, y) ->
          let v = B.mul (b x) (b y) in
          B.equal v (B.of_string (B.to_string v)));
      q "of_string inverts to_string (multi-limb)"
        (Gen.list_size (Gen.int_range 0 6) medium) (fun xs ->
          let v =
            List.fold_left
              (fun acc x -> B.add (B.mul acc (b (1 lsl 40))) (b x))
              B.zero xs
          in
          B.equal v (B.of_string (B.to_string v)));
      q "decimal_length is the length of to_string"
        (Gen.list_size (Gen.int_range 0 6) (Gen.oneof [ medium; Gen.return 0 ]))
        (fun xs ->
          let v =
            List.fold_left
              (fun acc x -> B.add (B.mul acc (b 1_000_000_000)) (b x))
              B.zero xs
          in
          B.decimal_length v = String.length (B.to_string v));
      q "add is commutative (big)" (Gen.pair medium medium) (fun (x, y) ->
          let vx = B.mul (b x) (b max_int) and vy = B.mul (b y) (b max_int) in
          B.equal (B.add vx vy) (B.add vy vx));
      q "mul distributes over add" (Gen.triple small small small)
        (fun (x, y, z) ->
          B.equal
            (B.mul (b x) (B.add (b y) (b z)))
            (B.add (B.mul (b x) (b y)) (B.mul (b x) (b z))));
      q "succ/pred invert" medium (fun x -> B.equal (B.pred (B.succ (b x))) (b x));
    ]
