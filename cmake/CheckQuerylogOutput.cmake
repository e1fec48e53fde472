# Smoke-tests per-query observability end to end:
#   -DEXAMPLE=<path>  the dataplane_server binary
#   -DWORKDIR=<dir>   scratch directory for logs and responses
#
# Starts the data plane under a production-shaped observability spec —
# JSONL query log, span ring, 1-in-1000000 head sampling with a 50 ms
# tail threshold — and with DGGT_FAULTS=service.transient=every:2, so
# every other ladder attempt fails transiently and is retried, POSTs a
# run of queries, and asserts:
#
#   * the JSONL sink holds exactly one record per query, every one ok,
#     and at least one record counts a retry;
#   * /debug/querylog serves the same records over HTTP;
#   * /debug/query/<trace-id> answers 200 for a logged trace id and
#     echoes its record;
#   * /metrics counts the records and the retries, and carries a
#     trace-id exemplar on the service latency histogram, so a scrape
#     can jump from a bad bucket to a concrete query.
#
# Used by the `check-querylog` target; fails the build on any missing
# or malformed content.

foreach(var EXAMPLE WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "CheckQuerylogOutput.cmake needs -D${var}=<value>")
  endif()
endforeach()

find_program(CURL curl REQUIRED)
find_program(SH sh REQUIRED)

set(_body "{\"domain\":\"TextEditing\",\"query\":\"sort all lines\"}")
set(_jsonl "${WORKDIR}/querylog-check.jsonl")
set(_log "${WORKDIR}/querylog-check.log")
set(_pidfile "${WORKDIR}/querylog-check.pid")
file(REMOVE "${_jsonl}" "${_log}" "${_pidfile}")

#-----------------------------------------------------------------------
# Start the server with the observability spec and a periodic transient
# fault.
#-----------------------------------------------------------------------
execute_process(
  COMMAND ${SH} -c "DGGT_METRICS='qlog:${_jsonl},trace:ring:8192,sample:1000000,tail:50' DGGT_FAULTS='service.transient=every:2' '${EXAMPLE}' --serve 60 > '${_log}' 2>&1 & echo $! > '${_pidfile}'"
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
# Five queries: every other ladder attempt fails transiently, so most
# queries retry their rung once. Every one must still answer ok.
#-----------------------------------------------------------------------
foreach(_i RANGE 1 5)
  execute_process(
    COMMAND ${CURL} -sS -o "${WORKDIR}/querylog-answer-${_i}.json"
            -d "${_body}" "http://127.0.0.1:${_port}/v1/synthesize"
    RESULT_VARIABLE _rc)
  if(NOT _rc EQUAL 0)
    _stop_server()
    message(FATAL_ERROR "POST /v1/synthesize ${_i} failed (rc ${_rc})")
  endif()
  file(READ "${WORKDIR}/querylog-answer-${_i}.json" _answer)
  if(NOT _answer MATCHES "\"status\":\"ok\"")
    _stop_server()
    message(FATAL_ERROR "query ${_i} did not answer ok:\n${_answer}")
  endif()
endforeach()

#-----------------------------------------------------------------------
# /debug/querylog: one record per query. The record lands just after
# the HTTP answer is sent, so poll briefly for the fifth.
#-----------------------------------------------------------------------
set(_qlog "")
foreach(_try RANGE 25)
  execute_process(
    COMMAND ${CURL} -fsS -o "${WORKDIR}/querylog-debug.json"
            "http://127.0.0.1:${_port}/debug/querylog"
    RESULT_VARIABLE _rc)
  if(_rc EQUAL 0)
    file(READ "${WORKDIR}/querylog-debug.json" _qlog)
    if(_qlog MATCHES "\"total\":5")
      break()
    endif()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.2)
endforeach()
if(NOT _qlog MATCHES "\"total\":5")
  _stop_server()
  message(FATAL_ERROR "/debug/querylog never reached 5 records:\n${_qlog}")
endif()
string(REGEX MATCHALL "\"trace_id\":\"[0-9a-f]+\"" _ids "${_qlog}")
list(LENGTH _ids _nids)
if(NOT _nids EQUAL 5)
  _stop_server()
  message(FATAL_ERROR "expected 5 trace ids in /debug/querylog, got ${_nids}:\n${_qlog}")
endif()

#-----------------------------------------------------------------------
# /debug/query/<trace-id>: the per-query join answers for a logged id.
#-----------------------------------------------------------------------
list(GET _ids 0 _first)
string(REGEX REPLACE "\"trace_id\":\"([0-9a-f]+)\"" "\\1" _first "${_first}")
execute_process(
  COMMAND ${CURL} -fsS -o "${WORKDIR}/querylog-byid.json"
          "http://127.0.0.1:${_port}/debug/query/${_first}"
  RESULT_VARIABLE _rc)
if(NOT _rc EQUAL 0)
  _stop_server()
  message(FATAL_ERROR "/debug/query/${_first} did not answer 200 (rc ${_rc})")
endif()
file(READ "${WORKDIR}/querylog-byid.json" _byid)
foreach(needle "\"trace_id\":\"${_first}\"" "\"record\":{" "\"spans\":[")
  string(FIND "${_byid}" "${needle}" _pos)
  if(_pos EQUAL -1)
    _stop_server()
    message(FATAL_ERROR "/debug/query answer is missing: ${needle}\n---\n${_byid}")
  endif()
endforeach()

#-----------------------------------------------------------------------
# /metrics: record and retry counters plus a trace-id exemplar on the
# service latency histogram.
#-----------------------------------------------------------------------
execute_process(
  COMMAND ${CURL} -fsS -o "${WORKDIR}/querylog-metrics.prom"
          "http://127.0.0.1:${_port}/metrics"
  RESULT_VARIABLE _rc)
_stop_server()
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "curl /metrics on port ${_port} failed (rc ${_rc})")
endif()
file(READ "${WORKDIR}/querylog-metrics.prom" _prom)
if(NOT _prom MATCHES "dggt_querylog_records_total 5")
  message(FATAL_ERROR "record counter wrong on /metrics\n---\n${_prom}")
endif()
if(NOT _prom MATCHES "dggt_service_retries_total\\{[^}]*\\} [1-9]")
  message(FATAL_ERROR "no retries recorded under service.transient\n---\n${_prom}")
endif()
if(NOT _prom MATCHES "dggt_service_query_latency_ms_bucket[^\n]* # \\{trace_id=\"[0-9a-f]+\"\\}")
  message(FATAL_ERROR "no trace-id exemplar on the latency histogram\n---\n${_prom}")
endif()

#-----------------------------------------------------------------------
# JSONL sink: exactly one line per query, every one ok, and at least
# one retried record whose attempts outnumber its retries.
#-----------------------------------------------------------------------
if(NOT EXISTS "${_jsonl}")
  message(FATAL_ERROR "qlog JSONL sink '${_jsonl}' was never written")
endif()
file(STRINGS "${_jsonl}" _lines)
list(LENGTH _lines _nlines)
if(NOT _nlines EQUAL 5)
  message(FATAL_ERROR "expected 5 JSONL records, got ${_nlines} in ${_jsonl}")
endif()
set(_retried 0)
foreach(_line IN LISTS _lines)
  if(NOT _line MATCHES "^\\{\"trace_id\":\"[0-9a-f]+\"")
    message(FATAL_ERROR "malformed JSONL record: ${_line}")
  endif()
  if(NOT _line MATCHES "\"outcome\":\"ok\"")
    message(FATAL_ERROR "JSONL record not ok: ${_line}")
  endif()
  if(_line MATCHES "\"attempts\":([0-9]+),\"retries\":([1-9][0-9]*)")
    set(_attempts "${CMAKE_MATCH_1}")
    set(_retries "${CMAKE_MATCH_2}")
    math(EXPR _retried "${_retried} + 1")
    if(NOT _attempts GREATER _retries)
      message(FATAL_ERROR "retried record has no more attempts than retries: ${_line}")
    endif()
  endif()
endforeach()
if(_retried EQUAL 0)
  message(FATAL_ERROR "no retried record in ${_jsonl} despite service.transient")
endif()

message(STATUS "query-log output OK: 5/5 records (${_retried} retried), "
               "by-id lookup and latency exemplars verified")
