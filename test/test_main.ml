(** Test runner: one Alcotest section per library. *)

let () =
  Alcotest.run "blas"
    [
      ("bignum", Test_bignum.suite);
      ("xml", Test_xml.suite);
      ("labeling", Test_label.suite);
      ("xpath", Test_xpath.suite);
      ("relational", Test_relational.suite);
      ("buffer-pool", Test_pool.suite);
      ("sql", Test_sql.suite);
      ("twigjoin", Test_twig.suite);
      ("decompose", Test_decompose.suite);
      ("engines", Test_engines.suite);
      ("cost", Test_cost.suite);
      ("optimizer", Test_optimizer.suite);
      ("persist", Test_persist.suite);
      ("update", Test_update.suite);
      ("build", Test_build.suite);
      ("robustness", Test_robustness.suite);
      ("observability", Test_obs.suite);
      ("parallel", Test_par.suite);
      ("server", Test_server.suite);
      ("cluster", Test_cluster.suite);
      ("misc", Test_misc.suite);
      ("datagen", Test_datagen.suite);
      ("cache", Test_cache.suite);
      ("codec", Test_codec.suite);
      ("disk", Test_disk.suite);
      ("golden", Test_golden.suite);
    ]
