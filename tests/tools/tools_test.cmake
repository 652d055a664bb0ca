# End-to-end CLI test: pam_gen writes a dataset, pam_mine mines it with a
# parallel formulation and rules, and both must succeed with coherent
# output. Invoked by CTest with -DGEN=<pam_gen> -DMINE=<pam_mine>
# -DWORKDIR=<scratch dir>.

file(MAKE_DIRECTORY "${WORKDIR}")
set(DATA "${WORKDIR}/tools_test.bin")
set(ITEMSETS "${WORKDIR}/tools_test.fi")

execute_process(
  COMMAND "${GEN}" --transactions 2000 --items 150 --avg-len 8
          --patterns 60 --seed 9 --output "${DATA}"
  RESULT_VARIABLE gen_rc OUTPUT_VARIABLE gen_out ERROR_VARIABLE gen_err)
if(NOT gen_rc EQUAL 0)
  message(FATAL_ERROR "pam_gen failed (${gen_rc}): ${gen_out}${gen_err}")
endif()
if(NOT gen_out MATCHES "wrote 2000 transactions")
  message(FATAL_ERROR "pam_gen output unexpected: ${gen_out}")
endif()

execute_process(
  COMMAND "${MINE}" --input "${DATA}" --minsup 1 --algorithm hd --ranks 4
          --rules --minconf 70 --machine t3e --explain --stats
          --save-itemsets "${ITEMSETS}" --top 5
  RESULT_VARIABLE mine_rc OUTPUT_VARIABLE mine_out ERROR_VARIABLE mine_err)
if(NOT mine_rc EQUAL 0)
  message(FATAL_ERROR "pam_mine failed (${mine_rc}): ${mine_out}${mine_err}")
endif()
foreach(needle
        "loaded 2000 transactions"
        "mined with HD on 4 logical ranks"
        "modeled response time"
        "frequent itemsets:"
        "saved frequent itemsets")
  if(NOT mine_out MATCHES "${needle}")
    message(FATAL_ERROR "pam_mine output missing '${needle}': ${mine_out}")
  endif()
endforeach()
if(NOT EXISTS "${ITEMSETS}")
  message(FATAL_ERROR "itemset file not written")
endif()

# Unknown flags must be rejected with a non-zero exit.
execute_process(
  COMMAND "${MINE}" --input "${DATA}" --no-such-flag
  RESULT_VARIABLE bad_rc OUTPUT_QUIET ERROR_QUIET)
if(bad_rc EQUAL 0)
  message(FATAL_ERROR "pam_mine accepted an unknown flag")
endif()

# Out-of-range item ids must fail the load with a message and exit code 1,
# not a crash. A process killed by a signal shows up in RESULT_VARIABLE as
# a string, not as the integer 1.
set(BAD_TEXT "${WORKDIR}/tools_test_bad.txt")
foreach(bad_line "1 2 -1" "1 2 4000000000" "1 2 99999999999")
  file(WRITE "${BAD_TEXT}" "3 4\n${bad_line}\n")
  execute_process(
    COMMAND "${MINE}" --input "${BAD_TEXT}" --format text --minsup 1
    RESULT_VARIABLE bad_item_rc OUTPUT_VARIABLE bad_item_out
    ERROR_VARIABLE bad_item_err)
  if(NOT bad_item_rc STREQUAL "1")
    message(FATAL_ERROR
            "pam_mine on '${bad_line}' exited '${bad_item_rc}', want 1: "
            "${bad_item_out}${bad_item_err}")
  endif()
  if(NOT bad_item_err MATCHES "error: item id out of range")
    message(FATAL_ERROR
            "pam_mine on '${bad_line}' gave no range error: ${bad_item_err}")
  endif()
endforeach()
file(REMOVE "${BAD_TEXT}")

# DHP filter must preserve the mined itemset count.
execute_process(
  COMMAND "${MINE}" --input "${DATA}" --minsup 1 --algorithm cd --ranks 2
          --dhp 65536 --top 1
  RESULT_VARIABLE dhp_rc OUTPUT_VARIABLE dhp_out)
execute_process(
  COMMAND "${MINE}" --input "${DATA}" --minsup 1 --algorithm cd --ranks 2
          --top 1
  RESULT_VARIABLE plain_rc OUTPUT_VARIABLE plain_out)
if(NOT dhp_rc EQUAL 0 OR NOT plain_rc EQUAL 0)
  message(FATAL_ERROR "pam_mine CD runs failed")
endif()
string(REGEX MATCH "frequent itemsets: [0-9]+" dhp_count "${dhp_out}")
string(REGEX MATCH "frequent itemsets: [0-9]+" plain_count "${plain_out}")
if(NOT dhp_count STREQUAL plain_count)
  message(FATAL_ERROR
          "DHP changed results: '${dhp_count}' vs '${plain_count}'")
endif()

file(REMOVE "${DATA}" "${ITEMSETS}")
