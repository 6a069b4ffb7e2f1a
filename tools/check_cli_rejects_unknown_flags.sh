#!/bin/sh
# Every sweep-driving binary must refuse a flag it does not know: exit
# non-zero and name the flag, rather than run a silently different
# sweep.
#
#   usage: tools/check_cli_rejects_unknown_flags.sh BINARY...
status=0
for bin in "$@"; do
    if err=$("$bin" --no-such-flag 2>&1 >/dev/null); then
        echo "FAIL: $bin accepted --no-such-flag"
        status=1
    elif ! printf '%s\n' "$err" | grep -q -e "--no-such-flag"; then
        echo "FAIL: $bin did not name --no-such-flag: $err"
        status=1
    fi
done
exit $status
