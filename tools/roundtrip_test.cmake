# End-to-end CLI test: generate -> inspect -> anonymize -> analyze.
# Invoked by ctest as
#   cmake -DGEN=<path> -DINSPECT=<path> -DANALYZE=<path> -DWORK=<dir>
#         [-DLEGACY=<tests/data/legacy>] -P roundtrip_test.cmake
# and fails on any non-zero tool exit or missing artifact.

function(run_step)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "step failed (${rc}): ${ARGV}")
  endif()
endfunction()

file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})

# 1. Generate a tiny capture (explicit config exercises config_io too).
run_step(${GEN} --preset small --seed 5 --out ${WORK}/trace --format binary
         --write-config ${WORK}/gen.cfg)
foreach(artifact trace/proxy.bin trace/mme.bin trace/devices.bin
        trace/sectors.bin trace/generator.cfg gen.cfg)
  if(NOT EXISTS ${WORK}/${artifact})
    message(FATAL_ERROR "missing artifact: ${WORK}/${artifact}")
  endif()
endforeach()

# 2. Inspect + transcode + anonymize.
run_step(${INSPECT} --trace ${WORK}/trace --top-hosts 5 --devices
         --convert ${WORK}/trace_csv --format csv
         --anonymize ${WORK}/trace_anon)
if(NOT EXISTS ${WORK}/trace_csv/proxy.csv)
  message(FATAL_ERROR "csv transcode missing")
endif()
if(NOT EXISTS ${WORK}/trace_anon/proxy.bin)
  message(FATAL_ERROR "anonymized bundle missing")
endif()

# 3. Analyze the original and the anonymized capture; both must complete
#    and produce reports.
run_step(${ANALYZE} --trace ${WORK}/trace --report ${WORK}/report.txt
         --markdown ${WORK}/report.md --csv-dir ${WORK}/csv)
if(NOT EXISTS ${WORK}/report.txt)
  message(FATAL_ERROR "text report missing")
endif()
if(NOT EXISTS ${WORK}/report.md)
  message(FATAL_ERROR "markdown report missing")
endif()
file(GLOB csv_files ${WORK}/csv/*.csv)
list(LENGTH csv_files csv_count)
if(csv_count LESS 30)
  message(FATAL_ERROR "expected >=30 figure CSVs, got ${csv_count}")
endif()

run_step(${ANALYZE} --trace ${WORK}/trace_anon
         --observation-days 153 --detailed-start-day 139
         --report ${WORK}/report_anon.txt)

# 3b. Thread-sweep equivalence gate: the parallel batch pipeline must
#     produce a byte-identical report for every thread count.
foreach(t 2 3 4 8)
  run_step(${ANALYZE} --trace ${WORK}/trace --threads ${t}
           --report ${WORK}/report_t${t}.txt)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK}/report.txt ${WORK}/report_t${t}.txt
                  RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR
            "report diverges at --threads ${t} (determinism contract broken)")
  endif()
  # Anonymized ids are sparse 64-bit hashes: the same gate on them.
  run_step(${ANALYZE} --trace ${WORK}/trace_anon --threads ${t}
           --observation-days 153 --detailed-start-day 139
           --report ${WORK}/report_anon_t${t}.txt)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  ${WORK}/report_anon.txt ${WORK}/report_anon_t${t}.txt
                  RESULT_VARIABLE diff_rc)
  if(NOT diff_rc EQUAL 0)
    message(FATAL_ERROR "anonymized report diverges at --threads ${t}")
  endif()
endforeach()

# 3c. Legacy rewrite gate: v1 and v2 are read-only, and the checked-in
#     fixture bundles (tests/data/legacy) rewritten as v3 by
#     `wearscope_inspect --convert --format binary` must give byte-identical
#     logs, v2 at every decoder thread count.  CodecGolden pins those bytes
#     to the v3 golden of the records the fixtures hold.
if(DEFINED LEGACY)
  run_step(${INSPECT} --trace ${LEGACY}/v1
           --convert ${WORK}/legacy_v1 --format binary)
  foreach(t 1 2 3 4 8)
    run_step(${INSPECT} --trace ${LEGACY}/v2 --threads ${t}
             --convert ${WORK}/legacy_v2_t${t} --format binary)
    foreach(stem proxy mme devices sectors)
      execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                      ${WORK}/legacy_v1/${stem}.bin
                      ${WORK}/legacy_v2_t${t}/${stem}.bin
                      RESULT_VARIABLE diff_rc)
      if(NOT diff_rc EQUAL 0)
        message(FATAL_ERROR "v1 and v2 fixtures rewrite to different v3 "
                            "${stem}.bin at --threads ${t}")
      endif()
    endforeach()
  endforeach()
endif()

# 4. Compare a bundle against itself: must succeed (all deltas zero).
if(DEFINED COMPARE)
  run_step(${COMPARE} --a ${WORK}/trace --b ${WORK}/trace)
endif()

# 5. Live replay: the sharded online engine must reproduce the batch
#    pipeline exactly — adoption, activity, apps, sectors and quarantine
#    (--verify enforces it).
if(DEFINED LIVE)
  run_step(${LIVE} --bundle ${WORK}/trace --shards 4 --snapshot-every 1d
           --verify)
endif()

# 5b. Federated round trip: two partitioned live runs over the same
#     bundle persist WSFD partial snapshots, and the merge coordinator's
#     --verify gate must prove the federated snapshot renders
#     byte-identically to the batch pipeline over the original bundle.
if(DEFINED LIVE AND DEFINED MERGE)
  foreach(p 0 1)
    run_step(${LIVE} --bundle ${WORK}/trace --shards 2 --snapshot-every 1d
             --partition ${p}/2 --partial-dir ${WORK}/partials)
  endforeach()
  run_step(${MERGE} --dir ${WORK}/partials --verify --bundle ${WORK}/trace)
  if(DEFINED INSPECT)
    run_step(${INSPECT} --partials ${WORK}/partials)
  endif()
endif()

# 6. Chaos fault-plan round trip: analysis under record-level injection
#    must hold quarantine == manifest exactly (the tool exits non-zero
#    otherwise), and a live replay with transient read faults must still
#    match the batch pipeline bit for bit.
run_step(${ANALYZE} --trace ${WORK}/trace --chaos-seed 7
         --chaos-profile records --report ${WORK}/report_chaos.txt)
if(NOT EXISTS ${WORK}/report_chaos.txt)
  message(FATAL_ERROR "chaos report missing")
endif()
file(READ ${WORK}/report_chaos.txt chaos_report)
if(NOT chaos_report MATCHES "quarantine")
  message(FATAL_ERROR "chaos report does not surface quarantine counters")
endif()
if(DEFINED LIVE)
  run_step(${LIVE} --bundle ${WORK}/trace --shards 3 --chaos-seed 7
           --chaos-profile transient --verify)
endif()

# 7. Lint gate: a machine-readable run over the shipped tree must report
#    zero findings (the JSON path exercises --format=json end to end).
if(DEFINED LINT)
  execute_process(COMMAND ${LINT} --root ${SRC} --format json
                  OUTPUT_VARIABLE lint_json RESULT_VARIABLE lint_rc)
  if(NOT lint_rc EQUAL 0)
    message(FATAL_ERROR "lint run failed (${lint_rc}): ${lint_json}")
  endif()
  if(NOT lint_json MATCHES "\"total_findings\": 0")
    message(FATAL_ERROR "lint found issues in the shipped tree:\n${lint_json}")
  endif()
endif()

file(REMOVE_RECURSE ${WORK})
message(STATUS "tool round-trip OK")
