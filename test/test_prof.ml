(* Tests for the engine span profiler (Sim.Prof): span nesting and
   balance, stack well-formedness under random open/close sequences,
   GC-delta accounting, the determinism constraint (profiling must not
   perturb simulation results), and the Chrome-trace export shape. *)

let find_span name (r : Sim.Prof.report) =
  List.find_opt (fun (s : Sim.Prof.span_stat) -> s.Sim.Prof.name = name)
    r.Sim.Prof.spans

let get_span name r =
  match find_span name r with
  | Some s -> s
  | None -> Alcotest.failf "span %S missing from report" name

(* ---------- nesting and balance ---------- *)

let test_span_nesting () =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  let v =
    Sim.Prof.span "outer" (fun () ->
        Sim.Prof.span "inner" (fun () -> Sys.opaque_identity (6 * 7)))
  in
  Sim.Prof.span "outer" (fun () -> ());
  Sim.Prof.disable ();
  Alcotest.(check int) "span returns the body's value" 42 v;
  Alcotest.(check int) "depth balanced" 0 (Sim.Prof.depth ());
  let r = Sim.Prof.report () in
  let outer = get_span "outer" r and inner = get_span "inner" r in
  Alcotest.(check int) "outer count" 2 outer.Sim.Prof.count;
  Alcotest.(check int) "inner count" 1 inner.Sim.Prof.count;
  Alcotest.(check bool) "outer total >= inner total" true
    (outer.Sim.Prof.total_ns >= inner.Sim.Prof.total_ns);
  Alcotest.(check bool) "self <= total" true
    (outer.Sim.Prof.self_ns <= outer.Sim.Prof.total_ns
    && inner.Sim.Prof.self_ns <= inner.Sim.Prof.total_ns);
  (* Child time is attributed to the parent's total but not its self. *)
  Alcotest.(check bool) "outer self excludes inner" true
    (outer.Sim.Prof.self_ns
    <= outer.Sim.Prof.total_ns -. inner.Sim.Prof.total_ns +. 1.0)

let test_span_exception_balance () =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  (try Sim.Prof.span "boom" (fun () -> failwith "payload") with
  | Failure _ -> ());
  Sim.Prof.disable ();
  Alcotest.(check int) "stack rebalanced after exception" 0 (Sim.Prof.depth ());
  let r = Sim.Prof.report () in
  Alcotest.(check int) "span still recorded" 1
    (get_span "boom" r).Sim.Prof.count

let test_leave_mismatch () =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  Sim.Prof.enter "a";
  Sim.Prof.enter "b";
  Alcotest.check_raises "wrong-name leave rejected"
    (Invalid_argument "Prof.leave \"a\": innermost open span is \"b\"")
    (fun () -> Sim.Prof.leave "a");
  Sim.Prof.leave "b";
  Sim.Prof.leave "a";
  Alcotest.check_raises "empty-stack leave rejected"
    (Invalid_argument "Prof.leave \"a\": no open span") (fun () ->
      Sim.Prof.leave "a");
  Sim.Prof.disable ()

let test_counters () =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  Sim.Prof.count "hits";
  Sim.Prof.count ~by:41 "hits";
  Sim.Prof.count "misses";
  Sim.Prof.disable ();
  let r = Sim.Prof.report () in
  Alcotest.(check (list (pair string int)))
    "counters merged and sorted"
    [ ("hits", 42); ("misses", 1) ]
    r.Sim.Prof.counters

(* ---------- random open/close well-formedness (QCheck) ---------- *)

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun i -> `Enter i) (int_bound 2));
        (3, return `Leave);
        (2, map (fun i -> `Count i) (int_bound 2));
      ])

let arbitrary_ops =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | `Enter i -> Printf.sprintf "enter%d" i
             | `Leave -> "leave"
             | `Count i -> Printf.sprintf "count%d" i)
           ops))
    QCheck.Gen.(list_size (int_bound 60) op_gen)

let prop_stack_well_formed =
  QCheck.Test.make ~name:"span stack well-formed under random open/close"
    ~count:100 arbitrary_ops (fun ops ->
      Sim.Prof.reset ();
      Sim.Prof.enable ();
      let name i = String.make 1 (Char.chr (Char.code 'a' + i)) in
      let stack = ref [] in
      let completed = Hashtbl.create 8 in
      let counted = Hashtbl.create 8 in
      let bump tbl k by =
        Hashtbl.replace tbl k (by + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      in
      List.iter
        (fun op ->
          (match op with
          | `Enter i ->
            Sim.Prof.enter (name i);
            stack := name i :: !stack
          | `Leave -> (
            match !stack with
            | [] -> () (* leaving with nothing open is the caller's bug *)
            | top :: rest ->
              Sim.Prof.leave top;
              bump completed top 1;
              stack := rest)
          | `Count i ->
            Sim.Prof.count (name i);
            bump counted (name i) 1);
          if Sim.Prof.depth () <> List.length !stack then
            QCheck.Test.fail_reportf "depth %d, model %d" (Sim.Prof.depth ())
              (List.length !stack))
        ops;
      List.iter
        (fun top ->
          Sim.Prof.leave top;
          bump completed top 1)
        !stack;
      Sim.Prof.disable ();
      let r = Sim.Prof.report () in
      Hashtbl.iter
        (fun k n ->
          let got = (get_span k r).Sim.Prof.count in
          if got <> n then
            QCheck.Test.fail_reportf "span %s: %d completions, model %d" k got
              n)
        completed;
      Hashtbl.iter
        (fun k n ->
          let got =
            Option.value ~default:0 (List.assoc_opt k r.Sim.Prof.counters)
          in
          if got <> n then
            QCheck.Test.fail_reportf "counter %s: %d, model %d" k got n)
        counted;
      List.iter
        (fun (s : Sim.Prof.raw_span) ->
          if s.Sim.Prof.stop_ns < s.Sim.Prof.start_ns then
            QCheck.Test.fail_reportf "raw span %s stops before it starts"
              s.Sim.Prof.span_name;
          if s.Sim.Prof.depth < 0 then
            QCheck.Test.fail_reportf "raw span %s negative depth"
              s.Sim.Prof.span_name)
        r.Sim.Prof.raw_spans;
      true)

(* ---------- GC deltas ---------- *)

let test_gc_deltas () =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  Sim.Prof.span "alloc.outer" (fun () ->
      Sim.Prof.span "alloc.inner" (fun () ->
          Sys.opaque_identity (List.init 100_000 (fun i -> (i, float_of_int i))))
      |> ignore);
  Sim.Prof.span "quiet" (fun () -> Sys.opaque_identity ());
  Sim.Prof.disable ();
  let r = Sim.Prof.report () in
  let outer = get_span "alloc.outer" r and inner = get_span "alloc.inner" r in
  Alcotest.(check bool) "allocating span sees minor words" true
    (inner.Sim.Prof.minor_words > 0.0);
  (* GC deltas are inclusive: the parent saw at least the child's work. *)
  Alcotest.(check bool) "parent minor words >= child's" true
    (outer.Sim.Prof.minor_words >= inner.Sim.Prof.minor_words);
  List.iter
    (fun (s : Sim.Prof.span_stat) ->
      Alcotest.(check bool)
        (s.Sim.Prof.name ^ " deltas non-negative")
        true
        (s.Sim.Prof.minor_words >= 0.0
        && s.Sim.Prof.major_words >= 0.0
        && s.Sim.Prof.minor_collections >= 0
        && s.Sim.Prof.major_collections >= 0))
    r.Sim.Prof.spans

(* ---------- determinism: profiling must not perturb results ---------- *)

let rendered_recovery () =
  let est =
    Eval.Setup.build ~seed:7 ~backups:1 ~mux_degree:3 Eval.Setup.Torus4
  in
  let stats =
    Eval.Recovery_delay.measure ~seed:7 ~scenario_count:4 est.Eval.Setup.ns
  in
  Eval.Report.to_csv (Eval.Recovery_delay.report [ stats ])

let test_profiling_identity () =
  Sim.Prof.reset ();
  Sim.Prof.disable ();
  let baseline = rendered_recovery () in
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  let profiled = rendered_recovery () in
  Sim.Prof.disable ();
  let r = Sim.Prof.report () in
  Alcotest.(check bool) "profiler actually saw the run" true
    (find_span "engine.run" r <> None);
  Alcotest.(check string) "profiled run byte-identical to unprofiled" baseline
    profiled

(* The static recovery engine is one span per [simulate] call plus an
   affected-connection counter, and arming them changes no result. *)
let test_recovery_span () =
  let est =
    Eval.Setup.build ~seed:7 ~backups:1 ~mux_degree:3 Eval.Setup.Torus4
  in
  let measure () = Eval.Rfast.measure est.Eval.Setup.ns Eval.Rfast.Single_node in
  Sim.Prof.reset ();
  Sim.Prof.disable ();
  let baseline = measure () in
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  let profiled = measure () in
  Sim.Prof.disable ();
  let r = Sim.Prof.report () in
  Alcotest.(check int) "one span per scenario" profiled.Eval.Rfast.scenarios
    (get_span "recovery.simulate" r).Sim.Prof.count;
  Alcotest.(check (option int)) "affected counter"
    (Some profiled.Eval.Rfast.affected)
    (List.assoc_opt "recovery.affected" r.Sim.Prof.counters);
  Alcotest.(check bool) "profiled measurement equals unprofiled" true
    (baseline = profiled)

(* ---------- exports ---------- *)

let test_chrome_export_shape () =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  Sim.Prof.span "outer" (fun () -> Sim.Prof.span "inner" (fun () -> ()));
  Sim.Prof.disable ();
  let r = Sim.Prof.report () in
  let j = Eval.Telemetry.events_to_chrome ~prof:r [] in
  let evs =
    match Eval.Json.member "traceEvents" j with
    | Some l -> Eval.Json.to_list l
    | None -> Alcotest.fail "no traceEvents member"
  in
  Alcotest.(check int) "one complete event per raw span"
    (List.length r.Sim.Prof.raw_spans)
    (List.length evs);
  List.iter
    (fun e ->
      let str k =
        Option.bind (Eval.Json.member k e) Eval.Json.to_string_opt
      in
      let num k =
        Option.bind (Eval.Json.member k e) Eval.Json.to_float_opt
      in
      Alcotest.(check (option string)) "complete event" (Some "X") (str "ph");
      Alcotest.(check (option string)) "engine category" (Some "engine")
        (str "cat");
      Alcotest.(check (option (float 0.0)))
        "span process id" (Some 1_000_000.0) (num "pid");
      Alcotest.(check bool) "duration present" true (num "dur" <> None))
    evs

let test_prof_json_shape () =
  Sim.Prof.reset ();
  Sim.Prof.enable ();
  Sim.Prof.span "outer" (fun () -> Sim.Prof.count "k");
  Sim.Prof.disable ();
  let j = Eval.Telemetry.prof_to_json (Sim.Prof.report ()) in
  let str k = Option.bind (Eval.Json.member k j) Eval.Json.to_string_opt in
  Alcotest.(check (option string)) "schema" (Some "bcp-prof/v1") (str "schema");
  (match Eval.Json.member "spans" j with
  | Some (Eval.Json.List [ span ]) ->
    Alcotest.(check (option string)) "span name" (Some "outer")
      (Option.bind (Eval.Json.member "name" span) Eval.Json.to_string_opt)
  | _ -> Alcotest.fail "expected exactly one span");
  match Eval.Json.member "counters" j with
  | Some (Eval.Json.Obj [ ("k", Eval.Json.Int 1) ]) -> ()
  | _ -> Alcotest.fail "expected counters {k: 1}"

(* ---------- disabled path ---------- *)

let test_disabled_is_inert () =
  Sim.Prof.reset ();
  Sim.Prof.disable ();
  Alcotest.(check int) "span still runs its body" 7
    (Sim.Prof.span "ignored" (fun () -> 7));
  Sim.Prof.count "ignored";
  Alcotest.(check int) "depth 0 when disabled" 0 (Sim.Prof.depth ());
  let r = Sim.Prof.report () in
  Alcotest.(check int) "no spans recorded" 0 (List.length r.Sim.Prof.spans);
  Alcotest.(check int) "no counters recorded" 0
    (List.length r.Sim.Prof.counters)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "prof"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception balance" `Quick
            test_span_exception_balance;
          Alcotest.test_case "leave mismatch" `Quick test_leave_mismatch;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gc deltas" `Quick test_gc_deltas;
          Alcotest.test_case "disabled path inert" `Quick
            test_disabled_is_inert;
        ] );
      ("stack", qsuite [ prop_stack_well_formed ]);
      ( "determinism",
        [
          Alcotest.test_case "profiling does not perturb results" `Quick
            test_profiling_identity;
          Alcotest.test_case "recovery span and counter" `Quick
            test_recovery_span;
        ] );
      ( "exports",
        [
          Alcotest.test_case "chrome trace shape" `Quick
            test_chrome_export_shape;
          Alcotest.test_case "bcp-prof/v1 shape" `Quick test_prof_json_shape;
        ] );
    ]
