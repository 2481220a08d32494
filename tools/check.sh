#!/usr/bin/env bash
# Tier-1 gate: byte-compile everything, then run the full test suite.
# This is what CI runs; run it locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# dump all thread stacks if any single test exceeds this budget — a
# wedged pool/supervisor should fail loudly, not hang the gate
export REPRO_FAULTHANDLER_TIMEOUT="${REPRO_FAULTHANDLER_TIMEOUT:-300}"

# hard wall-clock ceiling on the chaos suite (it kills real worker
# processes; a supervisor bug could otherwise wedge the whole gate)
with_timeout() {
    if command -v timeout >/dev/null 2>&1; then
        timeout --kill-after=30 "${CHAOS_TIMEOUT:-1200}" "$@"
    else
        "$@"
    fi
}

echo "== compileall =="
python -m compileall -q src benchmarks tools examples

echo "== one record codec =="
# repro.dfs.jsonlines owns the JSON-lines codec (encode_record /
# decode_line / decode_lines); a second spelling of it anywhere else is
# a second format waiting to drift. world/io.py is exempt: it dumps one
# gzip'd world document with insertion-ordered keys, not landed records.
if grep -rnF --include='*.py' -e 'separators=(",", ":")' -e 'json.loads(line' \
        src/repro | grep -v -e '^src/repro/dfs/jsonlines\.py:' \
                            -e '^src/repro/world/io\.py:'; then
    echo "per-record JSON codec outside src/repro/dfs/jsonlines.py" >&2
    exit 1
fi

echo "== one durable kernel =="
# repro.durable owns the state the continuous tiers recover after a crash
# (EventLog records and checkpoints, LeaseTable leases, read_doc /
# write_doc); a module that decodes its own state file again, or spells
# its own lease or manifest write, is a second copy of the kernel
if grep -nF -e 'json.loads(self.dfs.read_text(' -e 'MANIFEST' \
        -e 'manifest_path' -e '_lease_path(' -e 'to_json()' \
        src/repro/crawl/ledger.py src/repro/dfs/upsert.py \
        src/repro/serve/outbox.py src/repro/serve/subscriptions.py \
        src/repro/engine/checkpoint.py; then
    echo "durable state handled outside src/repro/durable.py" >&2
    exit 1
fi

echo "== one follow-index layout =="
# repro.serve.dataset.FollowIndex owns the follow graph's layout (sorted
# user ids, two CSR graphs of followed startups and users, sorted count
# keys); a serve module that builds (dst_type, dst_id) tuples again, or
# reads the index's arrays, is a second layout waiting to drift
if grep -rnE --include='*.py' -e 'dst_type, dst_id' \
        -e '\("(user|startup)", ' -e 'follower_counts' \
        -e '\._(users|startups|followed|count_keys)\b' \
        src/repro/serve | grep -v '^src/repro/serve/dataset\.py:'; then
    echo "follow-index layout handled outside src/repro/serve/dataset.py" >&2
    exit 1
fi

echo "== one sorted adjacency =="
# repro.graph.csr.CSR is the one sorted-adjacency type: the world's
# follow graphs, the investment graph (which CoDA and the SBM read as
# arrays) and the serve follow index. A lexsorted column set or a
# hand-kept row-start array in the serve tier, an id -> position dict in
# the community models, or a dict of sets in the graph package is a
# second copy of it
if grep -rnE --include='*.py' -e 'np\.lexsort|_row_starts' src/repro/serve \
    || grep -rnE --include='*.py' \
        -e 'enumerate\(([a-z_]+\.)?(investor|company)_ids\)' \
        src/repro/community \
    || grep -rnE --include='*.py' -e 'setdefault\(.*set\(\)\)' \
        src/repro/graph; then
    echo "sorted adjacency kept outside src/repro/graph/csr.py" >&2
    exit 1
fi

echo "== one world adjacency =="
# the world's FollowGraph (two repro.graph.csr.CSR graphs) is the one
# copy of the follow edges; a source or crawler that reads User follow
# lists or builds the company-follower dict again holds a second copy
if grep -rnE --include='*.py' \
        -e 'company_followers\(|follows_companies|follows_users' \
        src/repro/sources src/repro/crawl; then
    echo "follow lists read outside the world's CSR graph" >&2
    exit 1
fi

echo "== one request ladder =="
# QueryService.execute owns steps 1-4 of a request (fresh cache, deadline
# gate, breaker, injected faults); the sharded tier overrides only the
# gate's estimate and the step-5 answer, so none of those steps may be
# spelled again in serve/sharding.py
if grep -nF -e 'lookup_fresh(' -e 'try_acquire(' -e 'serve_fault_at(' \
        src/repro/serve/sharding.py; then
    echo "request ladder copied into src/repro/serve/sharding.py" >&2
    exit 1
fi

echo "== engine reads its own context =="
# every RDD's context is a SparkLiteContext: its settings are plain
# attribute reads, never sniffed with a fallback default
if grep -nF -e 'getattr(self.context' -e 'getattr(context' \
        src/repro/engine/rdd.py; then
    echo "context attribute sniffed in src/repro/engine/rdd.py" >&2
    exit 1
fi

echo "== pytest (tier 1) =="
# the whole suite, with the modules that hold a gate named on the command
# line: a renamed or deleted module then fails here ("file or directory
# not found"), and pytest still collects each file once.
#
# Counted cost gates, with the identities they lean on: investor_activity
# streams follow edges through its filter (no scan stage, no cache
# spill), a request is matched only against templates of its own shape,
# encode_record builds no encoder per record; an ingest day draws per
# raising company and walks neither the world per closed round, the file
# table per listdir nor the frontier per claimed slice (held with
# WorldDynamics.step against the sequential loop and the DFS namespace
# index against a scan of the file table); a CoDA sweep's Python calls do
# not grow with the graph and the Figure 4 sample calls no randrange (held
# with the array CoDA against the row loop it replaced); an apply writes
# one small log record whatever came before it and no durable handle
# reads back what it wrote (held with the kernel's differentials); the
# serve follow index holds at most 10 (and 17) bytes an edge and its
# build peaks under a bound the two-dict fold failed (held with the index
# against that fold); the world's follow graphs hold at most 16 bytes an
# edge and are built with one lookup and no np.unique (held with the CSR
# graphs against the per-user list loop, and the investment graph on CSR
# against the dict of sets); an exchange hashes once per distinct key and
# chunk and pickles only the stride sample to size itself (<= 256 hashes,
# <= 512 rows on 60,000); an ingest day reads at most twice the deltas it
# lands, with log traffic flat over 64 days; and the knob ratchets
# (PlatformConfig fields, SparkLiteContext parameters, CLI options).
#
# Contracts: results invariant across backends (test_engine_backends), the token pool
# (test_crawl_tokens), CoDA's likelihood in its sweep budget
# (test_community_coda), map-side combine (test_engine_shuffle),
# partition recovery and checkpoint restore (test_engine_recovery), the
# 10x overload contract (test_serve_overload), the columnar engine's
# identity, shm accounting, segment hygiene and its >= 2x speedup on 4+
# cores (test_engine_columnar), kill-anywhere ingest resume and bounded
# recompute (test_ingest_scheduler), adaptive planning (test_engine_adaptive,
# test_engine_planner), shard loss, coverage and tenant isolation
# (test_serve_sharding, test_serve_tenancy), and standing queries under
# alert chaos and a 100x delivery flood (test_serve_alert_chaos,
# test_serve_outbox)
gate_modules=(
    tests/test_cost_gates.py
    tests/test_world_dynamics_differential.py tests/test_dfs_namespace_ops.py
    tests/test_community_coda_differential.py tests/test_durable.py
    tests/test_serve_follow_index.py tests/test_world_follows_differential.py
    tests/test_graph_bipartite_differential.py
    tests/test_engine_backends.py tests/test_crawl_tokens.py
    tests/test_community_coda.py tests/test_engine_shuffle.py
    tests/test_engine_recovery.py tests/test_serve_overload.py
    tests/test_engine_columnar.py tests/test_ingest_scheduler.py
    tests/test_engine_adaptive.py tests/test_engine_planner.py
    tests/test_serve_sharding.py tests/test_serve_tenancy.py
    tests/test_serve_alert_chaos.py tests/test_serve_outbox.py
)
python -m pytest -x -q "$@" tests "${gate_modules[@]}"

echo "== pytest (chaos suite) =="
# the deterministic fault-injection harness, on its default seed matrix
with_timeout python -m pytest -x -q -m chaos

echo "== paper results (section 3, 5.1, 5.2, Figures 3-8, X1-X6) =="
# the 15 benches that hold the paper's numbers on the 1/16-scale world
# of benchmarks/conftest.py, every assertion on and the timers off
with_timeout python -m pytest -q -p no:cacheprovider --benchmark-disable \
    benchmarks/bench_fig*.py benchmarks/bench_sec*.py benchmarks/bench_x*.py

echo "== e2e benchmark harness (smoke) =="
# the repo benchmark (BENCHMARK.json) at --smoke sizes, about a minute:
# a change under src/ that breaks a workload's output check — sharded
# answers vs the unsharded dataset, digests, failed/attempted — fails
# here, before the benchmark driver ever runs
with_timeout python -m pytest -q -p no:cacheprovider \
    benchmarks/e2e/test_bench_e2e.py
