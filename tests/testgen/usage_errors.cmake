# Runs the differential_runner CLI on malformed or invalid arguments and
# requires each run to exit 2 with the usage text on stderr.  Every case is
# refused while parsing or validating the options, before any replication
# starts.
#
#   cmake -DRUNNER=<path to differential_runner> -P usage_errors.cmake
if(NOT RUNNER)
  message(FATAL_ERROR "usage_errors.cmake: pass -DRUNNER=<differential_runner>")
endif()

# One case per element; "|" separates the arguments of a case.
set(cases
  "--scenarios|abc"
  "--z|nope|--scenarios|1"
  "--scenarios|5x"
  "--scenarios|-3"
  "--threads|-1"
  "--threads|4294967296"
  "--seed|12abc"
  "--allowed-misses|-2"
  "--replications|+8"
  "--repro|0x10"
  "--z|-1"
  "--z|inf"
  "--z|1.5e"
  "--scenarios|0"
  "--z|0"
  "--replications|1"
  "--repro|5|--replications|1"
  "--scenarios"
  "--bogus")

set(failures 0)
foreach(args IN LISTS cases)
  string(REPLACE "|" ";" argv "${args}")
  execute_process(COMMAND "${RUNNER}" ${argv}
    RESULT_VARIABLE status
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 20)
  if(NOT status STREQUAL "2" OR NOT err MATCHES "usage:")
    message(SEND_ERROR "differential_runner ${argv}: exit '${status}', stderr:\n${err}")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} usage-error case(s) were not refused with exit 2")
endif()
