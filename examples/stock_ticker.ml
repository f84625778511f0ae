(* Stock-quote dissemination (§4.1): an exchange multicasts price
   updates to broker terminals over LBRM.

   Receiver-reliability is the right fit: a terminal never blocks on an
   old price — a lost quote is recovered from the site logger, and if a
   newer quote for the same symbol has already arrived, the late repair
   is simply dropped by the application.

   Run with: dune exec examples/stock_ticker.exe *)

module Scenario = Lbrm_run.Scenario
module Quotes = Lbrm_apps.Quotes
module Loss = Lbrm_sim.Loss
module Engine = Lbrm_sim.Engine
module Rng = Lbrm_util.Rng
module Metrics = Lbrm_util.Metrics

let symbols = [ "ACME"; "GLOBEX"; "INITECH"; "HOOLI"; "PIEDPIPER" ]

let () =
  Printf.printf
    "Stock ticker: 5 symbols, 2 quotes/s, 5 sites of broker terminals,\n\
     10%% loss on every tail circuit.\n\n";
  (* One terminal per receiver host. *)
  let terminals : (int, Quotes.Terminal.t) Hashtbl.t = Hashtbl.create 32 in
  let on_deliver node ~now:_ ~seq:_ ~payload ~recovered:_ =
    let term =
      match Hashtbl.find_opt terminals node with
      | Some t -> t
      | None ->
          let t = Quotes.Terminal.create () in
          Hashtbl.replace terminals node t;
          t
    in
    ignore (Quotes.Terminal.on_payload term payload)
  in
  let d =
    Scenario.standard ~seed:31 ~sites:5 ~receivers_per_site:4
      ~initial_estimate:5. ~on_deliver
      ~tail_loss:(fun _ -> Loss.bernoulli 0.10)
      ()
  in
  let engine = Lbrm_run.Sim_runtime.engine d.runtime in
  let exchange = Quotes.Exchange.create ~rng:(Rng.create ~seed:8) ~symbols in
  let sent = ref 0 in
  Engine.every engine ~period:0.5 ~until:60. (fun () ->
      let q = Quotes.Exchange.tick exchange ~now:(Engine.now engine) in
      incr sent;
      Scenario.send d (Quotes.encode q));
  Scenario.run d ~until:120.;

  (* Every terminal's final quote must match the exchange's final price
     for every symbol. *)
  let terminals_total = Hashtbl.length terminals in
  let consistent = ref 0 in
  Hashtbl.iter
    (fun _node term ->
      let ok =
        List.for_all
          (fun s ->
            match (Quotes.Terminal.quote term s, Quotes.Exchange.price exchange s) with
            | Some q, Some p -> Float.abs (q.Quotes.price -. p) < 1e-9
            | None, Some _ -> false
            | _, None -> true)
          symbols
      in
      if ok then incr consistent)
    terminals;
  let applied, dropped =
    Hashtbl.fold
      (fun _ t (a, dr) ->
        ( a + Quotes.Terminal.updates_applied t,
          dr + Quotes.Terminal.superseded_dropped t ))
      terminals (0, 0)
  in
  Printf.printf "quotes multicast                 : %d\n" !sent;
  Printf.printf "terminals fully consistent       : %d / %d\n" !consistent
    terminals_total;
  Printf.printf "quote updates applied            : %d\n" applied;
  Printf.printf "late repairs dropped (superseded): %d\n" dropped;
  Printf.printf "packets repaired by loggers      : %d\n"
    (Metrics.count (Scenario.metrics d) "loss.recovered");
  if !consistent = terminals_total then
    print_endline "\nOK: every broker sees the closing prices."
  else begin
    print_endline "\nFAILED: inconsistent terminals.";
    exit 1
  end
