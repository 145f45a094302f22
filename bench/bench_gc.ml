(* Shared GC gauges for the BENCH_*.json emitters.

   Every record carries the [Gc.quick_stat] view at record-build time —
   major collections and heap words are global (the shared major heap) —
   plus the workload's own minor-allocation rate, computed from the
   minor-words delta the emitter measured.  Serial emitters take exact
   [Gc.minor_words ()] deltas on their work domain: OCaml 5's
   [quick_stat] minor words only advance at minor collections, so a
   delta over a short workload reads 0 or a whole minor heap depending
   on where a collection falls.  The pooled cube emitter, whose work
   runs on other domains, still takes [quick_stat] deltas.  These are
   the same quantities the live sampler publishes as the
   [gc.major_collections] / [gc.heap_words] / [gc.minor_words_per_s]
   gauges, so a committed bench record and a scraped snapshot are
   directly comparable. *)

let json_fields ~minor_words ~wall_s =
  let g = Gc.quick_stat () in
  let rate = if wall_s > 0.0 then minor_words /. wall_s else 0.0 in
  [
    ("gc_major_collections", Bench_record.int g.Gc.major_collections);
    ("gc_heap_words", Bench_record.int g.Gc.heap_words);
    ("gc_minor_words_per_s", Bench_record.fixed 0 rate);
  ]
