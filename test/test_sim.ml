(* Tests for the simulation substrate: PRNG, heap, engine, stats.  The
   typed event stream lives in [Bcp.Simnet]; test_simnet covers it. *)

let check_float = Alcotest.(check (float 1e-9))

(* ---------- Prng ---------- *)

let test_prng_deterministic () =
  let a = Sim.Prng.create 123 and b = Sim.Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Prng.bits64 a) (Sim.Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Sim.Prng.create 1 and b = Sim.Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" false
    (Sim.Prng.bits64 a = Sim.Prng.bits64 b)

let test_prng_int_range () =
  let rng = Sim.Prng.create 7 in
  for _ = 1 to 10_000 do
    let v = Sim.Prng.int rng 17 in
    if not (v >= 0 && v < 17) then Alcotest.failf "out of range: %d" v
  done

let test_prng_int_rejects_zero () =
  let rng = Sim.Prng.create 7 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Sim.Prng.int rng 0))

let test_prng_float_range () =
  let rng = Sim.Prng.create 9 in
  for _ = 1 to 10_000 do
    let v = Sim.Prng.float rng 3.5 in
    if not (v >= 0.0 && v < 3.5) then Alcotest.failf "out of range: %f" v
  done

let test_prng_uniformity () =
  (* Coarse balance check: 10 buckets, 10k draws. *)
  let rng = Sim.Prng.create 11 in
  let buckets = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let v = Sim.Prng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iter
    (fun c ->
      if not (c > 700 && c < 1300) then Alcotest.failf "unbalanced bucket: %d" c)
    buckets

let test_prng_exponential_mean () =
  let rng = Sim.Prng.create 13 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Prng.exponential rng ~mean:5.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 5" true (mean > 4.8 && mean < 5.2)

let test_prng_shuffle_permutation () =
  let rng = Sim.Prng.create 17 in
  let a = Array.init 50 (fun i -> i) in
  Sim.Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_split_independence () =
  let parent = Sim.Prng.create 23 in
  let child = Sim.Prng.split parent in
  Alcotest.(check bool) "streams differ" false
    (Sim.Prng.bits64 parent = Sim.Prng.bits64 child)

let test_prng_sample_without_replacement () =
  let rng = Sim.Prng.create 29 in
  let s = Sim.Prng.sample_without_replacement rng 10 20 in
  Alcotest.(check int) "ten values" 10 (List.length s);
  Alcotest.(check int) "distinct" 10 (List.length (List.sort_uniq Int.compare s));
  List.iter
    (fun v -> Alcotest.(check bool) "in range" true (v >= 0 && v < 20))
    s

(* ---------- Heap ---------- *)

let test_heap_sorts () =
  let h = Sim.Heap.create ~cmp:Int.compare in
  List.iter (Sim.Heap.push h) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 5; 7; 8; 9 ]
    (Sim.Heap.to_sorted_list h);
  Alcotest.(check int) "length intact" 7 (Sim.Heap.length h)

let test_heap_pop_order () =
  let h = Sim.Heap.create ~cmp:Int.compare in
  List.iter (Sim.Heap.push h) [ 4; 4; 1; 4 ];
  Alcotest.(check (option int)) "min first" (Some 1) (Sim.Heap.pop h);
  Alcotest.(check (option int)) "dup" (Some 4) (Sim.Heap.pop h);
  Alcotest.(check (option int)) "dup" (Some 4) (Sim.Heap.pop h);
  Alcotest.(check (option int)) "dup" (Some 4) (Sim.Heap.pop h);
  Alcotest.(check (option int)) "empty" None (Sim.Heap.pop h)

let test_heap_empty () =
  let h = Sim.Heap.create ~cmp:Int.compare in
  Alcotest.(check bool) "is_empty" true (Sim.Heap.is_empty h);
  Alcotest.(check (option int)) "peek none" None (Sim.Heap.peek h);
  Alcotest.check_raises "pop_exn" (Invalid_argument "Heap.pop_exn: empty heap")
    (fun () -> ignore (Sim.Heap.pop_exn h))

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains any list in sorted order" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = Sim.Heap.create ~cmp:Int.compare in
      List.iter (Sim.Heap.push h) l;
      Sim.Heap.to_sorted_list h = List.sort Int.compare l)

(* ---------- Engine ---------- *)

let test_engine_time_order () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore (Sim.Engine.schedule e ~at:3.0 (fun () -> log := 3 :: !log));
  ignore (Sim.Engine.schedule e ~at:1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.Engine.schedule e ~at:2.0 (fun () -> log := 2 :: !log));
  Sim.Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_float "clock at last event" 3.0 (Sim.Engine.now e)

let test_engine_fifo_ties () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  List.iter
    (fun i -> ignore (Sim.Engine.schedule e ~at:1.0 (fun () -> log := i :: !log)))
    [ 1; 2; 3; 4 ];
  Sim.Engine.run e;
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4 ]
    (List.rev !log)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  let h = Sim.Engine.schedule e ~at:1.0 (fun () -> fired := true) in
  Sim.Engine.cancel e h;
  Alcotest.(check int) "pending zero" 0 (Sim.Engine.pending e);
  Sim.Engine.run e;
  Alcotest.(check bool) "cancelled never fires" false !fired

let test_engine_cancel_idempotent () =
  let e = Sim.Engine.create () in
  let h = Sim.Engine.schedule e ~at:1.0 (fun () -> ()) in
  Sim.Engine.cancel e h;
  Sim.Engine.cancel e h;
  Alcotest.(check int) "pending stays 0" 0 (Sim.Engine.pending e)

let test_engine_schedule_in_past_rejected () =
  let e = Sim.Engine.create () in
  ignore (Sim.Engine.schedule e ~at:5.0 (fun () -> ()));
  Sim.Engine.run e;
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sim.Engine.schedule e ~at:1.0 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_nested_scheduling () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  ignore
    (Sim.Engine.schedule e ~at:1.0 (fun () ->
         log := "a" :: !log;
         ignore
           (Sim.Engine.schedule_after e ~delay:0.5 (fun () ->
                log := "b" :: !log))));
  Sim.Engine.run e;
  Alcotest.(check (list string)) "nested runs" [ "a"; "b" ] (List.rev !log);
  check_float "clock" 1.5 (Sim.Engine.now e)

let test_engine_run_until () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Sim.Engine.schedule e ~at:(float_of_int i) (fun () -> incr count))
  done;
  Sim.Engine.run ~until:5.5 e;
  Alcotest.(check int) "five fired" 5 !count;
  check_float "clock advanced to horizon" 5.5 (Sim.Engine.now e);
  Sim.Engine.run e;
  Alcotest.(check int) "rest fired" 10 !count

(* ---------- Stats ---------- *)

let test_running_stats () =
  let r = Sim.Stats.Running.create () in
  List.iter (Sim.Stats.Running.add r) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "mean" 5.0 (Sim.Stats.Running.mean r);
  check_float "variance" (32.0 /. 7.0) (Sim.Stats.Running.variance r);
  check_float "min" 2.0 (Sim.Stats.Running.min r);
  check_float "max" 9.0 (Sim.Stats.Running.max r);
  Alcotest.(check int) "count" 8 (Sim.Stats.Running.count r)

let test_running_merge () =
  let a = Sim.Stats.Running.create () and b = Sim.Stats.Running.create () in
  let all = Sim.Stats.Running.create () in
  List.iter
    (fun v ->
      Sim.Stats.Running.add all v;
      if v < 5.0 then Sim.Stats.Running.add a v else Sim.Stats.Running.add b v)
    [ 1.0; 2.0; 3.0; 6.0; 7.0; 8.0; 9.0 ];
  let m = Sim.Stats.Running.merge a b in
  check_float "merged mean" (Sim.Stats.Running.mean all) (Sim.Stats.Running.mean m);
  check_float "merged var"
    (Sim.Stats.Running.variance all)
    (Sim.Stats.Running.variance m)

let test_sample_percentiles () =
  let s = Sim.Stats.Sample.create () in
  for i = 1 to 100 do
    Sim.Stats.Sample.add s (float_of_int i)
  done;
  check_float "median" 50.5 (Sim.Stats.Sample.median s);
  check_float "p0" 1.0 (Sim.Stats.Sample.percentile s 0.0);
  check_float "p100" 100.0 (Sim.Stats.Sample.percentile s 100.0);
  check_float "max" 100.0 (Sim.Stats.Sample.max s);
  check_float "min" 1.0 (Sim.Stats.Sample.min s)

let test_histogram () =
  let h = Sim.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  List.iter (Sim.Stats.Histogram.add h) [ 0.5; 1.5; 1.7; 9.5; -3.0; 42.0 ];
  let counts = Sim.Stats.Histogram.counts h in
  Alcotest.(check int) "bin0 (incl clamp)" 2 counts.(0);
  Alcotest.(check int) "bin1" 2 counts.(1);
  Alcotest.(check int) "bin9 (incl clamp)" 2 counts.(9);
  Alcotest.(check int) "total" 6 (Sim.Stats.Histogram.total h);
  Alcotest.(check int) "edges" 11 (Array.length (Sim.Stats.Histogram.bin_edges h))

let test_sample_single () =
  let s = Sim.Stats.Sample.create () in
  Sim.Stats.Sample.add s 7.5;
  check_float "median" 7.5 (Sim.Stats.Sample.median s);
  check_float "p0" 7.5 (Sim.Stats.Sample.percentile s 0.0);
  check_float "p50" 7.5 (Sim.Stats.Sample.percentile s 50.0);
  check_float "p100" 7.5 (Sim.Stats.Sample.percentile s 100.0)

let test_histogram_clamp_boundaries () =
  let h = Sim.Stats.Histogram.create ~lo:0.0 ~hi:10.0 ~bins:10 in
  (* Exactly lo -> first bin; exactly hi -> last bin; an interior bin
     edge goes to the bin it opens. *)
  List.iter (Sim.Stats.Histogram.add h) [ 0.0; 10.0; 5.0 ];
  let counts = Sim.Stats.Histogram.counts h in
  Alcotest.(check int) "lo in bin0" 1 counts.(0);
  Alcotest.(check int) "hi in last bin" 1 counts.(9);
  Alcotest.(check int) "edge opens bin5" 1 counts.(5);
  (* Clamped outliers join the edge bins. *)
  List.iter (Sim.Stats.Histogram.add h) [ -1e9; 1e9 ];
  let counts = Sim.Stats.Histogram.counts h in
  Alcotest.(check int) "below lo clamps to bin0" 2 counts.(0);
  Alcotest.(check int) "above hi clamps to last" 2 counts.(9)

let test_ratio () =
  check_float "basic" 50.0 (Sim.Stats.ratio 1 2);
  check_float "zero denominator" 0.0 (Sim.Stats.ratio 5 0)

let prop_welford_matches_naive =
  QCheck.Test.make ~name:"Welford mean matches naive mean" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun l ->
      let r = Sim.Stats.Running.create () in
      List.iter (Sim.Stats.Running.add r) l;
      let naive = List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l) in
      Float.abs (Sim.Stats.Running.mean r -. naive)
      < 1e-6 *. (1.0 +. Float.abs naive))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "sim"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int zero bound" `Quick test_prng_int_rejects_zero;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick
            test_prng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick
            test_prng_split_independence;
          Alcotest.test_case "sample w/o replacement" `Quick
            test_prng_sample_without_replacement;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorts" `Quick test_heap_sorts;
          Alcotest.test_case "pop order" `Quick test_heap_pop_order;
          Alcotest.test_case "empty behaviour" `Quick test_heap_empty;
        ] );
      qsuite "heap-props" [ prop_heap_sorts ];
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_time_order;
          Alcotest.test_case "FIFO ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "cancel idempotent" `Quick
            test_engine_cancel_idempotent;
          Alcotest.test_case "past rejected" `Quick
            test_engine_schedule_in_past_rejected;
          Alcotest.test_case "nested scheduling" `Quick
            test_engine_nested_scheduling;
          Alcotest.test_case "run until" `Quick test_engine_run_until;
        ] );
      ( "stats",
        [
          Alcotest.test_case "running" `Quick test_running_stats;
          Alcotest.test_case "merge" `Quick test_running_merge;
          Alcotest.test_case "percentiles" `Quick test_sample_percentiles;
          Alcotest.test_case "single sample" `Quick test_sample_single;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram clamp boundaries" `Quick
            test_histogram_clamp_boundaries;
          Alcotest.test_case "ratio" `Quick test_ratio;
        ] );
      qsuite "stats-props" [ prop_welford_matches_naive ];
    ]
