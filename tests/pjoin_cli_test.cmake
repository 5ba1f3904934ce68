# pjoin_cli end to end: joins tests/data/cli_{left,right}.stream once
# serially and once with --threads, and fails unless both runs emit the
# same multiset of result tuples and the same set of punctuations. Arrival
# stamps are dropped before comparing: the sharded run has no single join
# clock, so it stamps its output differently.
#
#   cmake -DCLI=<pjoin_cli binary> -DDATA=<tests/data> -P pjoin_cli_test.cmake

foreach(mode serial threads)
  set(flags --propagate-count 1)
  if(mode STREQUAL "threads")
    list(APPEND flags --threads)
  endif()
  execute_process(
    COMMAND ${CLI}
            --left ${DATA}/cli_left.stream --left-schema key:int64,qty:int64
            --right ${DATA}/cli_right.stream --right-schema key:int64,w:float64
            ${flags}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "pjoin_cli (${mode}) exited with ${rc}")
  endif()
  string(REPLACE "\n" ";" lines "${out}")
  set(tuples_${mode} "")
  set(puncts_${mode} "")
  foreach(line IN LISTS lines)
    if(line MATCHES "^t [0-9]+ (.*)$")
      list(APPEND tuples_${mode} "${CMAKE_MATCH_1}")
    elseif(line MATCHES "^p [0-9]+ (.*)$")
      list(APPEND puncts_${mode} "${CMAKE_MATCH_1}")
    elseif(NOT line STREQUAL "")
      message(FATAL_ERROR "pjoin_cli (${mode}): unexpected line '${line}'")
    endif()
  endforeach()
  list(SORT tuples_${mode})
  list(REMOVE_DUPLICATES puncts_${mode})
  list(SORT puncts_${mode})
  list(LENGTH tuples_${mode} num_tuples)
  list(LENGTH puncts_${mode} num_puncts)
  message(STATUS "${mode}: ${num_tuples} results, ${num_puncts} punctuations")
  if(num_tuples EQUAL 0 OR num_puncts EQUAL 0)
    message(FATAL_ERROR "pjoin_cli (${mode}) emitted no results or no "
                        "punctuations; the comparison would prove nothing")
  endif()
endforeach()

if(NOT tuples_serial STREQUAL tuples_threads)
  message(FATAL_ERROR "result multisets differ:\n serial:  ${tuples_serial}\n"
                      " threads: ${tuples_threads}")
endif()
if(NOT puncts_serial STREQUAL puncts_threads)
  message(FATAL_ERROR "punctuation sets differ:\n serial:  ${puncts_serial}\n"
                      " threads: ${puncts_threads}")
endif()
