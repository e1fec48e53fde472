# Smoke-tests continuous profiling and cost attribution end to end:
#   -DEXAMPLE=<path>  the dataplane_server binary
#   -DWORKDIR=<dir>   scratch directory for logs and responses
#
# Starts the data plane with the profiler armed from the environment
# (`prof:99` — the production spec path, not the HTTP control path,
# which the http_endpoint tests already cover), drives a run of
# distinct queries through POST /v1/synthesize so the DP core burns real
# CPU (repeat queries hit the shared caches and cost nothing), and
# asserts:
#
#   * the folded-stack export at /debug/profile is non-empty, every
#     line is "frame(;frame)* count", and at least one frame names the
#     DP core (PathSearch / Cgt / synthesize);
#   * every completed query's record on /debug/querylog carries a
#     populated cost object — exactly one per record, none missing,
#     none doubled (the record-once invariant in production shape);
#   * /debug/query/<trace-id> answers with an explain section that
#     ranks the record's metrics against its domain peers;
#   * the profiler's self-accounting on /statusz shows samples were
#     taken and handler time stayed under 2% of profiled wall time
#     (the overhead budget DESIGN.md §16 commits to at 99 Hz).
#
# Used by the `check-profile` target; fails the build on any missing
# or malformed content.

foreach(var EXAMPLE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "CheckProfileOutput.cmake needs -D${var}=<value>")
  endif()
endforeach()

find_program(CURL curl REQUIRED)
find_program(SH sh REQUIRED)

set(_log "${WORKDIR}/profile-check.log")
set(_pidfile "${WORKDIR}/profile-check.pid")
file(REMOVE "${_log}" "${_pidfile}")

#-----------------------------------------------------------------------
# Start the server with the profiler armed at the classic 99 Hz.
#-----------------------------------------------------------------------
execute_process(
  COMMAND ${SH} -c "DGGT_METRICS='prof:99,qlog:ring:4096' '${EXAMPLE}' --serve 120 > '${_log}' 2>&1 & echo $! > '${_pidfile}'"
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "failed to start '${EXAMPLE}'")
endif()
file(READ "${_pidfile}" _pid)
string(STRIP "${_pid}" _pid)

macro(_stop_server)
  execute_process(COMMAND ${SH} -c "kill ${_pid} 2>/dev/null" ERROR_QUIET)
endmacro()

set(_port "")
foreach(_try RANGE 100)
  if(EXISTS "${_log}")
    file(READ "${_log}" _out)
    if(_out MATCHES "dggt-http-endpoint: listening on 127\\.0\\.0\\.1:([0-9]+)")
      set(_port "${CMAKE_MATCH_1}")
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
endforeach()
if(_port STREQUAL "")
  _stop_server()
  file(READ "${_log}" _out)
  message(FATAL_ERROR "no announce line within 20 s; log:\n${_out}")
endif()

#-----------------------------------------------------------------------
# Distinct queries across both domains: every one misses the caches and
# runs the full pipeline, so the process-CPU-clock profiler has real DP
# core work to sample. Two passes double the record count cheaply.
#-----------------------------------------------------------------------
set(_queries
  "sort all lines"
  "print all lines"
  "sort all lines in ascending order"
  "delete all numbers in each line"
  "delete numerals in each line"
  "delete words in each line"
  "delete lines containing numbers"
  "delete every line"
  "copy the first word in each line"
  "count all words in each sentence"
  "sort all lines in descending order"
  "print the first word in each line"
  "copy all words"
  "copy all lines"
  "delete the first word in each line"
  "count all words"
  "count all lines"
  "print all words in each line"
  "remove all numbers in each line"
  "delete all words in each sentence"
  "find all call expressions"
  "find all binary operators"
  "find try statements with a catch all handler"
  "find for loops whose condition is a binary operator"
  "find pointer types whose pointee is a record type"
  "find virtual cxx methods"
  "find deleted functions"
  "find functions returning pointer types"
  "find cxx constructor expressions"
  "find virtual methods"
  "find call expressions whose argument is a float literal"
  "find for loops"
  "find functions")
set(_n 0)
foreach(_pass RANGE 1 2)
  foreach(_q IN LISTS _queries)
    if(_q MATCHES "^find")
      set(_domain "ASTMatcher")
    else()
      set(_domain "TextEditing")
    endif()
    math(EXPR _n "${_n} + 1")
    execute_process(
      COMMAND ${CURL} -sS -o "${WORKDIR}/profile-answer.json"
              -d "{\"domain\":\"${_domain}\",\"query\":\"${_q}\"}"
              "http://127.0.0.1:${_port}/v1/synthesize"
      RESULT_VARIABLE _rc)
    if(NOT _rc EQUAL 0)
      _stop_server()
      message(FATAL_ERROR "POST /v1/synthesize '${_q}' failed (rc ${_rc})")
    endif()
    file(READ "${WORKDIR}/profile-answer.json" _answer)
    if(NOT _answer MATCHES "\"status\":\"ok\"")
      _stop_server()
      message(FATAL_ERROR "query '${_q}' did not answer ok:\n${_answer}")
    endif()
  endforeach()
endforeach()

#-----------------------------------------------------------------------
# /debug/querylog: every record carries exactly one populated cost
# object. The cost key is schema-guaranteed per record; populated and a
# nonzero node_visits prove the counters flowed from the DP core
# through the in-process report, not just defaulted.
#-----------------------------------------------------------------------
set(_qlog "")
foreach(_try RANGE 25)
  execute_process(
    COMMAND ${CURL} -fsS -o "${WORKDIR}/profile-querylog.json"
            "http://127.0.0.1:${_port}/debug/querylog?limit=10000"
    RESULT_VARIABLE _rc)
  if(_rc EQUAL 0)
    file(READ "${WORKDIR}/profile-querylog.json" _qlog)
    if(_qlog MATCHES "\"total\":${_n}")
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
endforeach()
if(NOT _qlog MATCHES "\"total\":${_n}")
  _stop_server()
  message(FATAL_ERROR "/debug/querylog never reached ${_n} records:\n${_qlog}")
endif()
string(REGEX MATCHALL "\"cost\":\\{" _costs "${_qlog}")
list(LENGTH _costs _ncosts)
if(NOT _ncosts EQUAL _n)
  _stop_server()
  message(FATAL_ERROR
      "expected ${_n} cost objects in /debug/querylog, got ${_ncosts} — a "
      "record is missing its cost vector or carries two")
endif()
string(REGEX MATCHALL "\"populated\":true" _pops "${_qlog}")
list(LENGTH _pops _npops)
if(NOT _npops EQUAL _n)
  _stop_server()
  message(FATAL_ERROR
      "only ${_npops}/${_n} records carry a populated cost vector — the "
      "thread-local counters did not reach the report on every query")
endif()
if(NOT _qlog MATCHES "\"node_visits\":[1-9]")
  _stop_server()
  message(FATAL_ERROR "no record shows nonzero node_visits:\n${_qlog}")
endif()

#-----------------------------------------------------------------------
# /debug/query/<trace-id>: the slow-query explainer ranks this record's
# stage latencies and cost counters against its domain peers.
#-----------------------------------------------------------------------
string(REGEX MATCH "\"trace_id\":\"([0-9a-f]+)\"" _m "${_qlog}")
set(_first "${CMAKE_MATCH_1}")
execute_process(
  COMMAND ${CURL} -fsS -o "${WORKDIR}/profile-byid.json"
          "http://127.0.0.1:${_port}/debug/query/${_first}"
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  _stop_server()
  message(FATAL_ERROR "/debug/query/${_first} did not answer 200 (rc ${_rc})")
endif()
file(READ "${WORKDIR}/profile-byid.json" _byid)
foreach(needle "\"explain\":{" "\"domain_peers\":" "\"ranked\":[" "\"percentile\":" "\"x_median\":")
  string(FIND "${_byid}" "${needle}" _pos)
  if(_pos EQUAL -1)
    _stop_server()
    message(FATAL_ERROR "/debug/query explain is missing: ${needle}\n---\n${_byid}")
  endif()
endforeach()

#-----------------------------------------------------------------------
# /debug/profile: non-empty folded stacks whose frames reach into the
# DP core. (Served live while the profiler is still running — reads
# quiesce the handler, they do not stop it.)
#-----------------------------------------------------------------------
execute_process(
  COMMAND ${CURL} -fsS -o "${WORKDIR}/profile-folded.txt"
          "http://127.0.0.1:${_port}/debug/profile"
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  _stop_server()
  message(FATAL_ERROR
      "GET /debug/profile failed (rc ${_rc}) — the 99 Hz profiler captured "
      "no samples over ${_n} cache-missing queries")
endif()
file(STRINGS "${WORKDIR}/profile-folded.txt" _folded_lines)
list(LENGTH _folded_lines _nfolded)
if(_nfolded EQUAL 0)
  _stop_server()
  message(FATAL_ERROR "/debug/profile served an empty profile")
endif()
set(_dp_frames 0)
foreach(_line IN LISTS _folded_lines)
  if(NOT _line MATCHES " [1-9][0-9]*$")
    _stop_server()
    message(FATAL_ERROR "malformed folded line (no trailing count): ${_line}")
  endif()
  if(_line MATCHES "PathSearch|searchPaths|findPaths|Cgt|[Ss]ynthe")
    math(EXPR _dp_frames "${_dp_frames} + 1")
  endif()
endforeach()
if(_dp_frames EQUAL 0)
  _stop_server()
  message(FATAL_ERROR
      "no folded stack names a DP-core frame (PathSearch/Cgt/synthesize) "
      "across ${_nfolded} stacks — symbolization or sampling is broken")
endif()

#-----------------------------------------------------------------------
# /statusz: the profiler's self-accounting. Samples were taken, nothing
# catastrophic was dropped, and handler time stayed under 2% of the
# profiled wall time.
#-----------------------------------------------------------------------
execute_process(
  COMMAND ${CURL} -fsS -o "${WORKDIR}/profile-statusz.json"
          "http://127.0.0.1:${_port}/statusz"
  RESULT_VARIABLE _rc)
_stop_server()
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "curl /statusz on port ${_port} failed (rc ${_rc})")
endif()
file(READ "${WORKDIR}/profile-statusz.json" _statusz)
if(NOT _statusz MATCHES "\"profiler\":{\"running\":true,\"hz\":99")
  message(FATAL_ERROR "profiler section wrong on /statusz\n---\n${_statusz}")
endif()
if(NOT _statusz MATCHES "\"samples_total\":([0-9]+)")
  message(FATAL_ERROR "no samples_total on /statusz\n---\n${_statusz}")
endif()
set(_samples "${CMAKE_MATCH_1}")
if(_samples EQUAL 0)
  message(FATAL_ERROR "profiler took zero samples over ${_n} queries")
endif()
if(NOT _statusz MATCHES "\"handler_nanos_total\":([0-9]+)")
  message(FATAL_ERROR "no handler_nanos_total on /statusz\n---\n${_statusz}")
endif()
set(_handler_ns "${CMAKE_MATCH_1}")
if(NOT _statusz MATCHES "\"wall_nanos_total\":([0-9]+)")
  message(FATAL_ERROR "no wall_nanos_total on /statusz\n---\n${_statusz}")
endif()
set(_wall_ns "${CMAKE_MATCH_1}")
math(EXPR _handler_x50 "${_handler_ns} * 50")
if(_handler_x50 GREATER _wall_ns)
  message(FATAL_ERROR
      "profiler overhead over budget: handler ${_handler_ns} ns vs wall "
      "${_wall_ns} ns (limit 2%)")
endif()
if(NOT _statusz MATCHES "\"arena\":{\"process_high_water_bytes\":[0-9]+")
  message(FATAL_ERROR "no arena section on /statusz\n---\n${_statusz}")
endif()

message(STATUS "profile output OK: ${_samples} samples at 99 Hz over ${_n} "
               "queries (${_dp_frames}/${_nfolded} stacks in the DP core), "
               "${_n}/${_n} populated cost records, explain and overhead "
               "budget verified")
