open Helpers

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" false (Prng.bits64 a = Prng.bits64 b)

let test_int_bounds () =
  let g = Prng.create 3 in
  for _ = 1 to 1000 do
    let v = Prng.int g 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_int_rejects_nonpositive () =
  let g = Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_int_covers_range () =
  let g = Prng.create 4 in
  let seen = Array.make 5 false in
  for _ = 1 to 500 do
    seen.(Prng.int g 5) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_float_bounds () =
  let g = Prng.create 5 in
  for _ = 1 to 1000 do
    let v = Prng.float g 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_bool_balance () =
  let g = Prng.create 6 in
  let trues = ref 0 in
  for _ = 1 to 10000 do
    if Prng.bool g then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 4500 && !trues < 5500)

let test_split_independence () =
  let g = Prng.create 7 in
  let child = Prng.split g in
  (* The child stream must not be a shifted copy of the parent stream. *)
  let parent_next = Prng.bits64 g in
  let child_next = Prng.bits64 child in
  Alcotest.(check bool) "differ" false (parent_next = child_next)

let test_copy_preserves_state () =
  let g = Prng.create 8 in
  ignore (Prng.bits64 g);
  let h = Prng.copy g in
  Alcotest.(check int64) "same next value" (Prng.bits64 g) (Prng.bits64 h)

let test_shuffle_permutation () =
  let g = Prng.create 9 in
  let a = Array.init 20 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 (fun i -> i)) sorted

let test_sample_distinct_sorted () =
  let g = Prng.create 10 in
  for _ = 1 to 100 do
    let s = Prng.sample g ~k:5 ~n:12 in
    Alcotest.(check int) "size" 5 (List.length s);
    Alcotest.(check bool) "sorted distinct" true
      (List.sort_uniq compare s = s);
    List.iter (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 12)) s
  done

let test_sample_full_range () =
  let g = Prng.create 11 in
  Alcotest.(check (list int)) "k = n returns everything" [ 0; 1; 2 ]
    (Prng.sample g ~k:3 ~n:3);
  Alcotest.(check (list int)) "k = 0 empty" [] (Prng.sample g ~k:0 ~n:3)

let test_choose () =
  let g = Prng.create 12 in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 50 do
    let c = Prng.choose g a in
    Alcotest.(check bool) "member" true (Array.mem c a)
  done

(* Golden streams, captured before the generator state moved from a
   boxed [int64] field to an unboxed byte buffer: every draw function,
   [split] and [copy] must keep producing exactly these values. *)
type golden = {
  seed : int;
  bits : int64 list;  (* first 8 [bits64] *)
  ints : int list;  (* first 8 [int g 1000] *)
  floats : float list;  (* first 8 [float g 1.0] *)
  bools : bool list;  (* first 8 [bool] *)
  child : int64 list;  (* first 8 [bits64] of [split] on a fresh generator *)
  after_split : int64 list;  (* the parent's next 8 [bits64] after that split *)
  copied : int64 list;  (* first 8 [bits64] of a [copy] taken after one draw *)
}

let goldens =
  [
    {
      seed = 0;
      bits = [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x6c45d188009454fL; 0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ];
      ints = [ 850; 839; 373; 45; 456; 649; 100; 962 ];
      floats = [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6; 0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2; 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ];
      bools = [ true; false; true; false; true; false; true; false ];
      child = [ 0x568a9b0b1a2c05ecL; 0x44e5b8b147ef718bL; 0x458563ab55521133L; 0x7aec644539b6c0f9L; 0x98da2142fd100586L; 0x6f163edb947c9e05L; 0x17b5b595bf33339aL; 0x3500c0e53fa8015bL ];
      after_split = [ 0x6e789e6aa1b965f4L; 0x6c45d188009454fL; 0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL; 0x3ee5789041c98ac3L ];
      copied = [ 0x6e789e6aa1b965f4L; 0x6c45d188009454fL; 0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL; 0x3ee5789041c98ac3L ];
    };
    {
      seed = 1;
      bits = [ 0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL; 0x71c18690ee42c90bL; 0x71bb54d8d101b5b9L; 0xc34d0bff90150280L; 0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L ];
      ints = [ 117; 380; 260; 368; 392; 908; 869; 723 ];
      floats = [ 0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1; 0x1.c7061a43b90b2p-2; 0x1.c6ed53634406cp-2; 0x1.869a17ff202ap-1; 0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1 ];
      bools = [ true; true; false; true; true; false; true; true ];
      child = [ 0x6ec85f1f8547bc0cL; 0x6cf63afcc21a470aL; 0x8a27b94cff7526aaL; 0xd13756f65520a1ecL; 0x2b0bf5f2c051b4a2L; 0x255cf4495f13403fL; 0xc37e774dd869e1e2L; 0x60dd8722e34c80e1L ];
      after_split = [ 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL; 0x71c18690ee42c90bL; 0x71bb54d8d101b5b9L; 0xc34d0bff90150280L; 0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L; 0x491718de357e3da8L ];
      copied = [ 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL; 0x71c18690ee42c90bL; 0x71bb54d8d101b5b9L; 0xc34d0bff90150280L; 0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L; 0x491718de357e3da8L ];
    };
    {
      seed = 42;
      bits = [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L; 0x9bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L ];
      ints = [ 145; 929; 882; 625; 462; 2; 103; 823 ];
      floats = [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2; 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1; 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1 ];
      bools = [ true; true; false; false; false; false; true; false ];
      child = [ 0xc5a57e8172f0a9d2L; 0x61b3e514f002fd8bL; 0xb4b2555dc7fcd0aaL; 0x9a0499c8cfae7a8dL; 0x48fc621cdba53adL; 0xe7c013aa082bce9fL; 0x8571235597d94df6L; 0x2ce9cac0cd46acceL ];
      after_split = [ 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L; 0x9bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L; 0x5705b8770b3d7dd5L ];
      copied = [ 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L; 0x9bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L; 0x5705b8770b3d7dd5L ];
    };
    {
      seed = -1;
      bits = [ 0xe4d971771b652c20L; 0xe99ff867dbf682c9L; 0x382ff84cb27281e9L; 0x6d1db36ccba982d2L; 0xb4a0472e578069aeL; 0xd31dadbda438bb33L; 0xf14f2cf802083fa5L; 0x405da438a39e8064L ];
      ints = [ 500; 921; 258; 406; 194; 437; 72; 731 ];
      floats = [ 0x1.c9b2e2ee36ca5p-1; 0x1.d33ff0cfb7edp-1; 0x1.c17fc2659394p-3; 0x1.b476cdb32ea6p-2; 0x1.69408e5caf00dp-1; 0x1.a63b5b7b48717p-1; 0x1.e29e59f004107p-1; 0x1.017690e28e7ap-2 ];
      bools = [ false; true; true; false; false; true; true; false ];
      child = [ 0x695058899520ca9dL; 0x2c4e71ff4df252d1L; 0x1a9ccd1ad1b40609L; 0x4871d564e65965dbL; 0xcc3a0e490da1e91L; 0xc425e7287096a415L; 0x8dce386b2c0e353aL; 0xe9e133141914b271L ];
      after_split = [ 0xe99ff867dbf682c9L; 0x382ff84cb27281e9L; 0x6d1db36ccba982d2L; 0xb4a0472e578069aeL; 0xd31dadbda438bb33L; 0xf14f2cf802083fa5L; 0x405da438a39e8064L; 0xc4fea708156e0c84L ];
      copied = [ 0xe99ff867dbf682c9L; 0x382ff84cb27281e9L; 0x6d1db36ccba982d2L; 0xb4a0472e578069aeL; 0xd31dadbda438bb33L; 0xf14f2cf802083fa5L; 0x405da438a39e8064L; 0xc4fea708156e0c84L ];
    };
  ]

let draws n f = List.init n (fun _ -> f ())

let test_golden_streams () =
  List.iter
    (fun gd ->
      let name what = Printf.sprintf "seed %d %s" gd.seed what in
      let fresh () = Prng.create gd.seed in
      let g = fresh () in
      Alcotest.(check (list int64)) (name "bits64") gd.bits (draws 8 (fun () -> Prng.bits64 g));
      let g = fresh () in
      Alcotest.(check (list int)) (name "int 1000") gd.ints (draws 8 (fun () -> Prng.int g 1000));
      let g = fresh () in
      Alcotest.(check (list (float 0.0)))
        (name "float 1.0") gd.floats
        (draws 8 (fun () -> Prng.float g 1.0));
      let g = fresh () in
      Alcotest.(check (list bool)) (name "chance = float < p")
        (List.map (fun f -> f < 0.5) gd.floats)
        (draws 8 (fun () -> Prng.chance g 0.5));
      let g = fresh () in
      Alcotest.(check (list bool)) (name "bool") gd.bools (draws 8 (fun () -> Prng.bool g));
      let g = fresh () in
      let c = Prng.split g in
      Alcotest.(check (list int64)) (name "split child") gd.child (draws 8 (fun () -> Prng.bits64 c));
      Alcotest.(check (list int64))
        (name "after split") gd.after_split
        (draws 8 (fun () -> Prng.bits64 g));
      let g = fresh () in
      ignore (Prng.bits64 g);
      let c = Prng.copy g in
      ignore (Prng.bits64 g);
      Alcotest.(check (list int64)) (name "copy") gd.copied (draws 8 (fun () -> Prng.bits64 c)))
    goldens

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int rejects non-positive" `Quick test_int_rejects_nonpositive;
    Alcotest.test_case "int covers range" `Quick test_int_covers_range;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "bool balance" `Quick test_bool_balance;
    Alcotest.test_case "split independence" `Quick test_split_independence;
    Alcotest.test_case "copy preserves state" `Quick test_copy_preserves_state;
    Alcotest.test_case "shuffle is permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample distinct sorted" `Quick test_sample_distinct_sorted;
    Alcotest.test_case "sample edge cases" `Quick test_sample_full_range;
    Alcotest.test_case "choose membership" `Quick test_choose;
    Alcotest.test_case "golden streams" `Quick test_golden_streams;
  ]
