let tests () =
  let bound = 1 lsl 40 in
  (* An empty group name and format keep each result under its lock's
     own name. *)
  Bechamel.Test.make_grouped ~name:"" ~fmt:"%s%s"
    (List.map
       (fun (family : Locks.Lock_intf.family) ->
         let b = if family.family_name = "ticket_mod" then 64 else bound in
         let inst = family.make ~nprocs:4 ~bound:b in
         Bechamel.Test.make ~name:family.family_name
           (Bechamel.Staged.stage (fun () ->
                inst.acquire 0;
                inst.release 0)))
       Registry.lock_families)

let table ~quick =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let clock = Toolkit.Instance.monotonic_clock in
  let quota = Time.second (if quick then 0.2 else 0.75) in
  let cfg = Benchmark.cfg ~limit:2000 ~quota ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg [ clock ] (tests ()) in
  let results = Analyze.merge ols [ clock ] [ Analyze.all ols clock raw ] in
  let t =
    Table.make
      ~title:
        "uB (paper §7 practicality): uncontended acquire+release latency, \
         one domain"
      ~notes:
        [
          "nanoseconds per lock/unlock pair on an otherwise idle lock \
           created for 4 participants";
          "the bakery family pays an O(N) doorway scan even uncontended; \
           tas/ttas/ticket pay one atomic RMW";
        ]
      [ "lock"; "ns/op"; "r^2" ]
  in
  let rows =
    Hashtbl.fold
      (fun lock fit acc ->
        let ns =
          match Analyze.OLS.estimates fit with Some (x :: _) -> x | _ -> nan
        in
        let r2 = Option.value (Analyze.OLS.r_square fit) ~default:nan in
        (lock, ns, r2) :: acc)
      (Hashtbl.find results (Measure.label clock))
      []
  in
  List.iter
    (fun (lock, ns, r2) -> Table.add_rowf t "%s|%.1f|%.3f" lock ns r2)
    (List.sort (fun (_, a, _) (_, b, _) -> compare a b) rows);
  t
