# Usage-error check (ctest usage_error_<binary>, label "unit").
#
# Runs one bench, tool or example with a flag no binary declares and
# requires what common/cli.hh promises: exit status 2, and nothing on
# stdout, since the parser runs before any output or work.
#
# Variables: BIN (binary).

execute_process(
    COMMAND ${BIN} --no-such-flag
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 2 OR NOT out STREQUAL "")
    message(FATAL_ERROR
        "${BIN} --no-such-flag exited with ${rc} (want 2)\n"
        "stdout (want empty):\n${out}\nstderr:\n${err}")
endif()
