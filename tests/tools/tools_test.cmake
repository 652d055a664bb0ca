# End-to-end CLI test: pam_gen writes a dataset, pam_mine mines it with a
# parallel formulation and rules, and both must succeed with coherent
# output. Invoked by CTest with -DGEN=<pam_gen> -DMINE=<pam_mine>
# -DSERVE=<pam_serve> -DWORKDIR=<scratch dir>.

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

# The text image of the same draw must mine the same itemsets, byte for
# byte.
set(DATA_TEXT "${WORKDIR}/tools_test.txt")
set(ITEMSETS_TEXT "${WORKDIR}/tools_test_text.fi")
execute_process(
  COMMAND "${GEN}" --transactions 2000 --items 150 --avg-len 8
          --patterns 60 --seed 9 --output "${DATA_TEXT}" --text
  RESULT_VARIABLE gen_text_rc OUTPUT_VARIABLE gen_text_out
  ERROR_VARIABLE gen_text_err)
if(NOT gen_text_rc EQUAL 0)
  message(FATAL_ERROR "pam_gen --text failed (${gen_text_rc}): "
                      "${gen_text_out}${gen_text_err}")
endif()
execute_process(
  COMMAND "${MINE}" --input "${DATA_TEXT}" --format text --minsup 1
          --algorithm hd --ranks 4 --save-itemsets "${ITEMSETS_TEXT}" --top 0
  RESULT_VARIABLE mine_text_rc OUTPUT_VARIABLE mine_text_out
  ERROR_VARIABLE mine_text_err)
if(NOT mine_text_rc EQUAL 0)
  message(FATAL_ERROR
          "pam_mine --format text failed (${mine_text_rc}): "
          "${mine_text_out}${mine_text_err}")
endif()
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E compare_files "${ITEMSETS}" "${ITEMSETS_TEXT}"
  RESULT_VARIABLE same_rc)
if(NOT same_rc EQUAL 0)
  message(FATAL_ERROR "text and binary images mined different itemsets")
endif()
file(REMOVE "${DATA_TEXT}" "${ITEMSETS_TEXT}")

# Unknown flags must be rejected with a non-zero exit. The adaptive
# balancer and its flag are deleted, so --adaptive-balance is unknown too.
foreach(bad_flag "--no-such-flag" "--adaptive-balance")
  execute_process(
    COMMAND "${MINE}" --input "${DATA}" ${bad_flag}
    RESULT_VARIABLE bad_rc OUTPUT_QUIET ERROR_VARIABLE bad_err)
  if(NOT bad_rc STREQUAL "2")
    message(FATAL_ERROR "pam_mine ${bad_flag} exited '${bad_rc}', want 2")
  endif()
  if(NOT bad_err MATCHES "error: unknown flag ${bad_flag}")
    message(FATAL_ERROR "pam_mine ${bad_flag} gave no error: ${bad_err}")
  endif()
endforeach()

# Out-of-range item ids must fail the load with a message and exit code 1,
# not a crash. A process killed by a signal shows up in RESULT_VARIABLE as
# a string, not as the integer 1.
set(BAD_TEXT "${WORKDIR}/tools_test_bad.txt")
foreach(bad_line "1 2 -1" "1 2 4000000000" "1 2 99999999999"
                 "1 2 99999999999999999999999")
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

# Numeric flags outside their domain, or not numbers at all, must be
# rejected with a message naming the flag and exit code 2 before anything
# runs: no crash, no abort, no mining with a nonsense threshold. (No large
# --ranks or --threads-per-rank: a broken check would start that many
# threads.)
set(SMALL_TEXT "${WORKDIR}/tools_test_small.txt")
file(WRITE "${SMALL_TEXT}" "1 2 3\n1 2\n2 3\n1 3\n")
foreach(case "ranks;0" "ranks;-1" "dhp;-1" "minsup;-5" "minsup;abc"
             "ranks;2x" "threads-per-rank;0")
  list(GET case 0 flag)
  list(GET case 1 value)
  execute_process(
    COMMAND "${MINE}" --input "${SMALL_TEXT}" --format text --algorithm cd
            --${flag} ${value}
    RESULT_VARIABLE range_rc OUTPUT_VARIABLE range_out
    ERROR_VARIABLE range_err)
  if(NOT range_rc STREQUAL "2")
    message(FATAL_ERROR
            "pam_mine --${flag} ${value} exited '${range_rc}', want 2: "
            "${range_out}${range_err}")
  endif()
  if(NOT range_err MATCHES "error: --${flag} must be")
    message(FATAL_ERROR
            "pam_mine --${flag} ${value} did not name the flag: ${range_err}")
  endif()
endforeach()
# A switch takes true, 1, yes, false, 0 or no: a typo exits 2 naming the
# flag instead of silently turning the switch off.
foreach(switch "rules=ture" "maximal=2" "stats=off" "help=maybe")
  string(REGEX REPLACE "=.*" "" flag "${switch}")
  execute_process(
    COMMAND "${MINE}" --input "${SMALL_TEXT}" --format text --${switch}
    RESULT_VARIABLE switch_rc OUTPUT_VARIABLE switch_out
    ERROR_VARIABLE switch_err)
  if(NOT switch_rc STREQUAL "2" OR
     NOT switch_err MATCHES "error: --${flag} must be true, 1, yes")
    message(FATAL_ERROR
            "pam_mine --${switch} exited '${switch_rc}', want 2: "
            "${switch_out}${switch_err}")
  endif()
endforeach()
file(REMOVE "${SMALL_TEXT}")

# pam_serve arms --default-deadline-ms on every request that carries no
# deadline, so a value no clock can hold exits 2 before the server starts,
# as the server rejects such a deadline on a request.
set(EMPTY_SCRIPT "${WORKDIR}/tools_test_empty_script.txt")
file(WRITE "${EMPTY_SCRIPT}" "")
foreach(value "inf" "nan" "1e300")
  execute_process(
    COMMAND "${SERVE}" --datasets "d=${DATA}" --default-deadline-ms ${value}
    INPUT_FILE "${EMPTY_SCRIPT}"
    RESULT_VARIABLE serve_rc OUTPUT_VARIABLE serve_out
    ERROR_VARIABLE serve_err)
  if(NOT serve_rc STREQUAL "2" OR
     NOT serve_err MATCHES "error: --default-deadline-ms must be")
    message(FATAL_ERROR
            "pam_serve --default-deadline-ms ${value} exited '${serve_rc}', "
            "want 2: ${serve_out}${serve_err}")
  endif()
endforeach()
file(REMOVE "${EMPTY_SCRIPT}")

# pam_gen reads its numbers through the same parser: a malformed one exits
# 2 with the flag named, and nothing is written.
set(NOT_WRITTEN "${WORKDIR}/tools_test_not_written.bin")
execute_process(
  COMMAND "${GEN}" --transactions 20x --output "${NOT_WRITTEN}"
  RESULT_VARIABLE gen_bad_rc OUTPUT_QUIET ERROR_VARIABLE gen_bad_err)
if(NOT gen_bad_rc STREQUAL "2" OR
   NOT gen_bad_err MATCHES "error: --transactions must be an integer" OR
   EXISTS "${NOT_WRITTEN}")
  message(FATAL_ERROR
          "pam_gen --transactions 20x exited '${gen_bad_rc}': ${gen_bad_err}")
endif()
execute_process(
  COMMAND "${GEN}" --transactions 20 --text=maybe --output "${NOT_WRITTEN}"
  RESULT_VARIABLE gen_switch_rc OUTPUT_QUIET ERROR_VARIABLE gen_switch_err)
if(NOT gen_switch_rc STREQUAL "2" OR
   NOT gen_switch_err MATCHES "error: --text must be true, 1, yes" OR
   EXISTS "${NOT_WRITTEN}")
  message(FATAL_ERROR
          "pam_gen --text=maybe exited '${gen_switch_rc}': ${gen_switch_err}")
endif()

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
