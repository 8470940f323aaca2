#!/usr/bin/env bash
# Include-direction lint for the layered protocol stack.
#
# The stack is strictly layered:
#
#   support -> phy -> radio -> link -> network -> transport -> node
#
# with sim/trace as leaf utilities next to support. Lower layers must not
# include upward: the link layer knows nothing about routing, the network
# layer nothing about transport sessions, and only the node facades
# (mesh_node, port_mux) may see the whole stack. src/baseline holds the
# LoRaWAN-style star network, which sits at the link tier: it needs only
# addresses and the duty-cycle limiter. The hot-path
# memory-layout headers (support/pool.h, support/flat_map.h,
# support/function_ref.h, support/sliding_queue.h) live in support/ and are
# therefore includable from every layer — keep new allocation/container
# utilities there, not in the layer that first needs them. This script
# greps every #include in src/ and fails on any edge that points up.
# Suitable as a CI step alongside scripts/check_traces.sh; it needs no
# build and runs in milliseconds.
#
#   scripts/check_layering.sh
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
violation() {
  echo "layering violation: $1" >&2
  fail=1
}

# --- Cross-module direction ---------------------------------------------------
# allowed_modules <dir> <regex of permitted module prefixes>
allowed_modules() {
  local dir="$1" allowed="$2" hits
  hits=$(grep -Hn '#include "' "src/$dir"/*.h "src/$dir"/*.cpp 2>/dev/null |
         grep -Ev "#include \"($allowed)/" || true)
  if [ -n "$hits" ]; then
    violation "src/$dir may only include from: $allowed"
    echo "$hits" >&2
  fi
}

allowed_modules support  'support'
allowed_modules sim      'support|sim'
# The conservative PDES engine may see phy (lookahead derives from LoRa
# airtime) but nothing above it — ghost exchange lives in radio/pdes_bridge.
allowed_modules sim/pdes 'support|sim|phy'
allowed_modules trace    'support|trace'
allowed_modules phy      'support|phy'
allowed_modules radio    'support|sim|trace|phy|radio'
allowed_modules net      'support|sim|trace|phy|radio|net'
allowed_modules baseline 'support|sim|trace|phy|radio|net|baseline'
allowed_modules metrics  'support|sim|trace|phy|radio|net|metrics'

# --- Intra-net tiers ----------------------------------------------------------
# Tier of every net/ header. A file at tier N may include net/ headers of
# tier <= N only; baseline/ sits at the link tier.
tier_of() {
  case "$1" in
    address.h|address_util.h|role.h|config.h|packet.h|packet_sink.h|layer_context.h)
      echo 0 ;;  # common vocabulary
    duty_cycle.h|link_layer.h)
      echo 1 ;;  # link layer
    routing_table.h|routing_strategy.h|distance_vector_strategy.h|flooding_strategy.h|aodv_strategy.h|gateway_tree_strategy.h|energy_aware_strategy.h|network_layer.h)
      echo 2 ;;  # network layer
    reliable_sender.h|reliable_receiver.h|transport_layer.h)
      echo 3 ;;  # transport layer
    mesh_node.h|port_mux.h)
      echo 4 ;;  # node facade
    *)
      echo "" ;;
  esac
}

# check_tier <file> <tier>
check_tier() {
  local file="$1" tier="$2" header header_tier
  while read -r header; do
    header_tier=$(tier_of "$header")
    if [ -z "$header_tier" ]; then
      violation "$file includes net/$header, which has no assigned tier (update scripts/check_layering.sh)"
      continue
    fi
    if [ "$header_tier" -gt "$tier" ]; then
      violation "$file (tier $tier) includes net/$header (tier $header_tier) — upward include"
    fi
  done < <(grep -h '#include "net/' "$file" | sed 's|.*#include "net/\([^"]*\)".*|\1|')
}

for file in src/net/*.h src/net/*.cpp; do
  base=$(basename "$file" .cpp)
  base=$(basename "$base" .h).h
  tier=$(tier_of "$base")
  if [ -z "$tier" ]; then
    violation "src/net/$(basename "$file") is not assigned a tier in scripts/check_layering.sh"
    continue
  fi
  check_tier "$file" "$tier"
done

for file in src/baseline/*.h src/baseline/*.cpp; do
  check_tier "$file" 1
done

# --- Clock seam ---------------------------------------------------------------
# Protocol code must not read time or arm timers on the Simulator directly:
# every "now" and every delay goes through the LayerContext clock seam
# (local_now / true_now / schedule_local / schedule_at_true), which is what
# keeps per-node skew/drift and the true-time duty budget honest.
# cancel/is_pending are mechanical timer plumbing and stay direct.
# layer_context.h implements the seam and is exempt.
clock_hits=$(grep -Hn -E 'sim(_)?(->|\.)(now|schedule_after|schedule_at)\(' \
                  src/net/*.h src/net/*.cpp 2>/dev/null |
             grep -v 'layer_context' || true)
if [ -n "$clock_hits" ]; then
  violation "src/net must use the LayerContext clock seam, not the Simulator directly"
  echo "$clock_hits" >&2
fi

# --- Frame bytes --------------------------------------------------------------
# The wire format is stated once, in the wire table of net/packet.h, and
# net/packet.cpp is the only net file that reads or writes frame bytes: a
# second parser (say, of the link header) would be a second statement of
# the format. routing_table.cpp is exempt: its flash snapshot is not a frame.
codec_hits=$(grep -Hn -E '\b(ByteReader|ByteWriter|SpanWriter)\b' \
                  src/net/*.h src/net/*.cpp 2>/dev/null |
             grep -v -E '^src/net/(packet|routing_table)\.cpp:' || true)
if [ -n "$codec_hits" ]; then
  violation "only src/net/packet.cpp may read or write frame bytes"
  echo "$codec_hits" >&2
fi

# --- Flight-recorder seam -----------------------------------------------------
# Every trace event src/net emits goes through LayerContext's trace helpers
# (net/layer_context.h), which test the tracer inline: a call site that
# null-tests `tracer` or builds a trace::TraceEvent is a second seam, and
# its cost is no longer stated in one place. MeshNode::set_tracer, which
# stores the pointer and installs the route observer only while traced, is
# the one exception.
trace_hits=$(grep -Hn -E '\btracer_?\s*[!=]=|[!=]=\s*[A-Za-z_.>-]*\btracer_?\b|\(!?\s*[A-Za-z_.>-]*\btracer_?\s*(\)|&&|\|\|)|\bTraceEvent\b' \
                  src/net/*.h src/net/*.cpp 2>/dev/null |
             grep -v -E '^src/net/layer_context\.(h|cpp):' |
             grep -v -E '^src/net/mesh_node\.cpp:[0-9]+:  if \(tracer == nullptr\) \{$' || true)
if [ -n "$trace_hits" ]; then
  violation "only src/net/layer_context.{h,cpp} may test the tracer or build trace events"
  echo "$trace_hits" >&2
fi

if [ "$fail" -ne 0 ]; then
  echo "layering: FAILED" >&2
  exit 1
fi
echo "layering: all include edges point downward"
