#!/usr/bin/env bash
# Output checks only: one pass per workload, end to end and traced, against
# the committed digests, exact counts and layer shares. Never compares
# absolute times, so it reads the same on any host.
#
#   benchmark/check.sh --quick     sizes / 4, under a minute
#   benchmark/check.sh             full sizes, one cycle
#   benchmark/check.sh --quick --bless   re-record golden/ after an intended change
#
# Exits non-zero on any failed operation, golden mismatch, or
# cli.unattributed_share above 0.15.
set -euo pipefail
exec "$(dirname "$0")/run.sh" check "$@"
