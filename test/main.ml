let () =
  Alcotest.run "kind"
    (Test_logic.suites @ Test_datalog.suites @ Test_flogic.suites
   @ Test_gcm.suites @ Test_dl.suites @ Test_domain_map.suites
   @ Test_xmlkit.suites @ Test_plugins.suites @ Test_wrapper.suites
   @ Test_mediator.suites @ Test_planner.suites @ Test_neuro.suites
   @ Test_topdown.suites @ Test_robustness.suites @ Test_aggregate_ops.suites
   @ Test_transform.suites @ Test_extensions.suites @ Test_protocol.suites @ Test_misc.suites @ Test_provenance.suites @ Test_properties.suites @ Test_differential.suites @ Test_parthood.suites @ Test_analysis.suites @ Test_absint.suites @ Test_contain.suites
   @ Test_cost.suites @ Test_faults.suites @ Test_xmlfuzz.suites @ Test_flpfuzz.suites
   @ Test_recovery.suites @ Test_final.suites)
