# Smoke test of the figure driver: `figures --preset small --quiet` must
# exit 0 and run every entry.  Invoked by ctest as
#   cmake -DFIGURES=<path> -P figures_smoke.cmake
set(ids
  fig2a_adoption fig2b_retention fig3a_diurnal fig3b_activity
  fig3c_transactions fig3d_correlation fig4a_user_traffic fig4b_traffic_ratio
  fig4c_displacement fig4d_mobility_activity fig5a_app_popularity
  fig5b_app_usage fig6_categories fig7_per_usage fig8_thirdparty
  sec6_throughdevice ext_device_cohorts ext_retention ext_protocol_mix
  ext_geography ext_applewatch_launch ablation_session_gap
  ablation_signature_coverage ablation_entropy_norm ablation_device_id)

execute_process(COMMAND ${FIGURES} --preset small --quiet
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "figures exited with ${rc}:\n${err}")
endif()
foreach(id IN LISTS ids)
  string(FIND "${out}" "=== ${id} ===\n" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "figures output has no section for '${id}':\n${out}")
  endif()
endforeach()
string(REGEX MATCH "simulations=2 pipelines=1 " counts "${out}")
if(NOT counts)
  message(FATAL_ERROR "figures --figure all must simulate twice and run the "
                      "pipeline once:\n${out}")
endif()
