#!/usr/bin/env bash
# Tier-1 CI: warnings-as-errors build + full test suite, then the same
# suite under AddressSanitizer/UBSan (catches the buffer-discipline bugs
# the zero-copy RDMA paths are prone to).
#
#   ./ci.sh            # both passes
#   ./ci.sh --fast     # skip the sanitizer pass
set -euo pipefail
cd "$(dirname "$0")"

JOBS=${JOBS:-$(nproc)}

# Kill-and-restart smoke: run the restart example to completion while
# checkpointing every 20 steps, then pretend the job died after step 40
# and resume from that checkpoint. The resumed trajectory must be
# bitwise-identical to the uninterrupted one.
run_restart_smoke() {
  local build_dir="$1"
  echo "--- restart smoke (${build_dir}) ---"
  local work
  work=$(mktemp -d)
  trap 'rm -rf "${work}"' RETURN
  "${build_dir}/examples/lmp_cli" examples/in.restart.lj \
      --checkpoint-path "${work}/ck" --dump-final "${work}/full.dump"
  test -f "${work}/ck.40" || { echo "restart smoke: ck.40 missing"; return 1; }
  "${build_dir}/examples/lmp_cli" examples/in.restart.lj \
      --restart "${work}/ck.40" --dump-final "${work}/resumed.dump"
  diff "${work}/full.dump" "${work}/resumed.dump" \
      || { echo "restart smoke: resumed run diverged"; return 1; }
  echo "restart smoke: bitwise-identical after restart from step 40"
}

# Trace smoke: run the melt example (on the 6tni_p2p variant, whose
# ghost exchange goes through the put/notice path that carries flow IDs)
# with tracing + report enabled and validate the artifacts — the trace
# must parse as Chrome trace-event JSON with at least one span per stage
# per rank and causally consistent flow events (every flow start "s"
# matched by a finish "f"), the report as the versioned run-report schema
# with the v2 link-utilization section populated.
run_trace_smoke() {
  local build_dir="$1"
  echo "--- trace smoke (${build_dir}) ---"
  local work
  work=$(mktemp -d)
  trap 'rm -rf "${work}"' RETURN
  "${build_dir}/examples/lmp_cli" examples/in.melt.lj 6tni_p2p \
      --trace "${work}/melt.trace.json" --report "${work}/melt.report.json" \
      > /dev/null
  python3 - "${work}/melt.trace.json" "${work}/melt.report.json" <<'EOF'
import json, sys, collections
trace = json.load(open(sys.argv[1])); report = json.load(open(sys.argv[2]))
spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
stages = {"stage:Pair", "stage:Neigh", "stage:Comm", "stage:Modify", "stage:Other"}
per_rank = collections.defaultdict(set)
for e in spans:
    if e["name"] in stages:
        per_rank[e["pid"]].add(e["name"])
ranks = sorted(p for p in per_rank if p >= 0)
assert ranks, "no rank emitted stage spans"
for r in ranks:
    missing = stages - per_rank[r]
    assert not missing, f"rank {r} missing spans: {missing}"
starts = [e for e in trace["traceEvents"] if e.get("ph") == "s"]
finishes = [e for e in trace["traceEvents"] if e.get("ph") == "f"]
start_ids = {e["id"] for e in starts}
finish_ids = {e["id"] for e in finishes}
assert starts, "no flow events in a 6tni_p2p trace"
assert start_ids <= finish_ids, f"flows started but never finished: {sorted(start_ids - finish_ids)[:5]}"
keyed = [(e["ts"], e.get("pid", 0), e.get("tid", 0)) for e in trace["traceEvents"] if e.get("ph") != "M"]
assert keyed == sorted(keyed), "trace events not sorted by (ts, pid, tid)"
assert report["schema"] == "lmp-run-report" and report["version"] == 4
total = report["stages"]["total_seconds"]
sum_s = sum(v["seconds"] for k, v in report["stages"].items() if k != "total_seconds")
assert abs(sum_s - total) < 1e-9, (sum_s, total)
lu = report["link_utilization"]
assert lu["puts_charged"] > 0 and lu["total_bytes"] > 0, lu
assert lu["links_used"] >= len(lu["top_links"]) > 0, lu
integ = report["integrity"]
assert integ["detections"] == 0 and integ["rollbacks"] == 0, integ
print(f"trace smoke: {len(spans)} spans, {len(starts)} flows (all finished) "
      f"across ranks {ranks}; report v4 consistent")
EOF
}

# Serve smoke: boot the job server on a workload that exercises every
# admission outcome (two good jobs, a 1 ms deadline that must be missed,
# and a banned tenant whose submit must draw a structured quota
# rejection), SIGKILL the server once the long job has checkpointed a
# few slices, then rerun the identical command. The rerun must recover
# the journal (all three journaled jobs visible, the in-flight one
# requeued), re-attach idempotently to the existing jobs, finish the
# long job from its durable checkpoint, and emit a schema-valid run
# report per completed job.
run_serve_smoke() {
  local build_dir="$1"
  echo "--- serve smoke (${build_dir}) ---"
  local work
  work=$(mktemp -d)
  trap 'rm -rf "${work}"' RETURN
  mkdir -p "${work}/wd"
  local script
  for script in quick:10 long:1000 ; do
    cat > "${work}/in.${script%%:*}.lj" <<EOF
units lj
lattice fcc 0.8442
region box block 0 4 0 4 0 4
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
neighbor 0.3 bin
neigh_modify every 5 check no
fix 1 all nve
timestep 0.005
thermo 10
comm_variant ref
run ${script##*:}
EOF
  done
  cat > "${work}/jobs.txt" <<EOF
acme quick ${work}/in.quick.lj          # finishes before the kill
acme long ${work}/in.long.lj            # killed mid-flight, must resume
acme slow ${work}/in.long.lj 1          # 1 ms deadline: must be missed
banned probe ${work}/in.quick.lj        # tenant quota 0 running: rejected
EOF
  local serve_cmd=("${build_dir}/examples/lmp_serve"
      --journal "${work}/journal.bin" --workdir "${work}/wd"
      --jobs "${work}/jobs.txt" --workers 1 --slice 20
      --quota banned=0,0 --chunks)

  "${serve_cmd[@]}" > "${work}/run1.log" 2>&1 &
  local pid=$!
  # Kill once the long job (id 2) has a few durable checkpoints behind
  # it — mid-flight, with ~95% of its steps still to go.
  local waited=0
  while ! ls "${work}"/wd/job-2.ck.4? > /dev/null 2>&1; do
    if ! kill -0 "${pid}" 2>/dev/null; then
      echo "serve smoke: server exited before the kill window"
      cat "${work}/run1.log"
      return 1
    fi
    sleep 0.02
    waited=$((waited + 1))
    if [[ ${waited} -gt 3000 ]]; then
      echo "serve smoke: job 2 never checkpointed"
      kill -9 "${pid}" 2>/dev/null || true
      return 1
    fi
  done
  kill -9 "${pid}" 2>/dev/null || true
  wait "${pid}" 2>/dev/null || true

  # Identical command after the crash: recovery + idempotent re-submit.
  "${serve_cmd[@]}" > "${work}/run2.log" 2>&1 \
      || { echo "serve smoke: post-crash run failed"; cat "${work}/run2.log"; return 1; }
  local check
  for check in \
      '^journal: 3 jobs, [1-9] requeued' \
      'rejected reason=tenant-running-quota' \
      '(already known)' \
      '^job 1 acme/quick state=done' \
      '^job 2 acme/long state=done' \
      '^job 3 acme/slow state=failed .*deadline' ; do
    grep -Eq -- "${check}" "${work}/run2.log" || {
      echo "serve smoke: missing '${check}' in post-crash output"
      cat "${work}/run2.log"
      return 1
    }
  done
  python3 - "${work}/wd/job-1.report.json" "${work}/wd/job-2.report.json" <<'EOF'
import json, sys
for path in sys.argv[1:]:
    r = json.load(open(path))
    assert r["schema"] == "lmp-run-report" and r["version"] == 4, path
    total = r["stages"]["total_seconds"]
    sum_s = sum(v["seconds"] for k, v in r["stages"].items() if k != "total_seconds")
    assert abs(sum_s - total) < 1e-9, (path, sum_s, total)
    mem = r["memory"]
    assert mem["rss_bytes"] > 0, (path, mem)
    if mem["tracked"]:
        assert mem["heap_high_water_bytes"] > 0, (path, mem)
print(f"serve smoke: survived kill -9; {len(sys.argv) - 1} job reports valid")
EOF
  # Bitwise proof: the resumed job's streamed thermo (which restarts
  # from the checkpointed history, so the post-crash incarnation always
  # streams the complete series) must equal the stream of an
  # uninterrupted server run of the same script at the same cadence.
  echo "acme long ${work}/in.long.lj" > "${work}/jobs-ref.txt"
  mkdir -p "${work}/wd-ref"
  "${build_dir}/examples/lmp_serve" --journal "${work}/journal-ref.bin" \
      --workdir "${work}/wd-ref" --jobs "${work}/jobs-ref.txt" \
      --workers 1 --slice 20 --chunks > "${work}/ref.log" 2>&1 \
      || { echo "serve smoke: reference run failed"; cat "${work}/ref.log"; return 1; }
  awk '/^job 2 acme\/long /{f=1;next} /^job /{f=0} f && /^[0-9]+ /' \
      "${work}/run2.log" > "${work}/thermo.resumed"
  awk '/^job 1 acme\/long /{f=1;next} /^job /{f=0} f && /^[0-9]+ /' \
      "${work}/ref.log" > "${work}/thermo.ref"
  [[ -s "${work}/thermo.resumed" ]] \
      || { echo "serve smoke: resumed job streamed no thermo"; return 1; }
  diff "${work}/thermo.ref" "${work}/thermo.resumed" \
      || { echo "serve smoke: recovered thermo stream diverged"; return 1; }
  echo "serve smoke: recovered thermo bitwise-identical ($(wc -l < "${work}/thermo.resumed") samples)"
}

# Integrity smoke: the silent-corruption guards against the restart
# example. A transient velocity bit flip at a guard step must be
# detected within one cadence, rolled back, and recomputed — the run
# exits 0, reports the rollback, and its final dump is bitwise-identical
# to a fault-free guarded run. The same flip marked persistent re-fires
# on the recompute, which must terminate the run with the structured
# persistent-corruption error instead of emitting a corrupt trajectory.
run_integrity_smoke() {
  local build_dir="$1"
  echo "--- integrity smoke (${build_dir}) ---"
  local work
  work=$(mktemp -d)
  trap 'rm -rf "${work}"' RETURN
  "${build_dir}/examples/lmp_cli" examples/in.restart.lj \
      --integrity 10 --dump-final "${work}/clean.dump" \
      > "${work}/clean.log" \
      || { echo "integrity smoke: fault-free guarded run failed"; return 1; }
  "${build_dir}/examples/lmp_cli" examples/in.restart.lj \
      --integrity 10 --flip 30:0:vel:7:62 \
      --dump-final "${work}/healed.dump" > "${work}/transient.log" \
      || { echo "integrity smoke: transient flip was not healed"
           cat "${work}/transient.log"; return 1; }
  grep -q "integrity rollback at step 30" "${work}/transient.log" \
      || { echo "integrity smoke: rollback not reported"
           cat "${work}/transient.log"; return 1; }
  diff "${work}/clean.dump" "${work}/healed.dump" \
      || { echo "integrity smoke: healed trajectory diverged"; return 1; }
  if "${build_dir}/examples/lmp_cli" examples/in.restart.lj \
      --integrity 10 --flip 30:0:vel:7:62:persistent \
      > "${work}/persistent.log" 2>&1; then
    echo "integrity smoke: persistent fault did not terminate the run"
    return 1
  fi
  grep -q "persistent corruption" "${work}/persistent.log" \
      || { echo "integrity smoke: persistent fault lacks structured error"
           cat "${work}/persistent.log"; return 1; }
  echo "integrity smoke: transient flip healed bitwise, persistent flip escalated"
}

# Executor smoke: the async task-graph executor must reproduce the
# barrier executor's trajectory bit for bit on the golden melt (the
# 6tni_p2p engine, whose per-direction forward channels the step DAG
# genuinely overlaps with interior force groups), and its traced
# notice_wait attribution must come in below the barrier run's — the
# overlap fills dispatcher-wait time with interior force work. Wait
# times are wall-clock on a shared host, so a near-tie gets ONE retry
# before it counts as a regression. The melt runs on 2x1x1 ranks, not
# its own 2x2x2: each async rank keeps two threads busy (the rank
# thread plus one DAG pool worker, `--executor async`'s default of 2),
# and the comparison only means something when every busy thread owns
# a core — ranks x busy threads per rank <= nproc, the rule benchmark/
# applies (4 here, on the 4-core CI host).
run_executor_smoke() {
  local build_dir="$1"
  echo "--- executor smoke (${build_dir}) ---"
  local work
  work=$(mktemp -d)
  trap 'rm -rf "${work}"' RETURN
  sed 's/^processors .*/processors      2 1 1/' examples/in.melt.lj \
      > "${work}/in.melt.lj"
  grep -q '^processors *2 1 1$' "${work}/in.melt.lj" \
      || { echo "executor smoke: could not set the 2x1x1 rank grid"; return 1; }
  local attempt
  for attempt in 1 2; do
    "${build_dir}/examples/lmp_cli" "${work}/in.melt.lj" 6tni_p2p \
        --executor barrier --dump-final "${work}/barrier.dump" \
        --trace "${work}/barrier.trace.json" \
        --report "${work}/barrier.report.json" > /dev/null
    "${build_dir}/examples/lmp_cli" "${work}/in.melt.lj" 6tni_p2p \
        --executor async --dump-final "${work}/async.dump" \
        --trace "${work}/async.trace.json" \
        --report "${work}/async.report.json" > /dev/null
    diff "${work}/barrier.dump" "${work}/async.dump" \
        || { echo "executor smoke: async trajectory diverged from barrier"; return 1; }
    if python3 - "${work}/barrier.report.json" "${work}/async.report.json" <<'EOF'
import json, sys
waits = []
for path in sys.argv[1:]:
    cp = json.load(open(path)).get("critical_path", {})
    assert "notice_wait" in cp, f"{path}: traced report lacks notice_wait"
    waits.append(cp["notice_wait"]["seconds"])
b, a = waits
print(f"executor smoke: trajectories bitwise-identical; notice_wait "
      f"barrier={b*1e3:.2f}ms async={a*1e3:.2f}ms "
      f"({'below' if a < b else 'NOT below'})")
sys.exit(0 if a < b else 1)
EOF
    then
      return 0
    fi
    echo "executor smoke: async notice_wait not below barrier (attempt ${attempt})"
  done
  return 1
}

# Telemetry smoke: boot lmp_serve with the stream endpoint on a
# two-tenant workload — acme on the utofu_3stage fabric (so the per-TNI
# series carry real bytes) and beta with a 1 ms deadline that must be
# missed — then drive the `stats` verb over the socket with lmp_top
# --once --json while the server lingers. The snapshot must parse, carry
# a nonzero step-rate series, both tenants' SLO windows with beta in
# deadline breach, at least one TNI with traffic, and the breach
# transition as a structured event; the rendered dashboard must show the
# breach tag, and the server's final stats table must count the breach.
run_telemetry_smoke() {
  local build_dir="$1"
  echo "--- telemetry smoke (${build_dir}) ---"
  local work
  work=$(mktemp -d)
  trap 'rm -rf "${work}"' RETURN
  mkdir -p "${work}/wd"
  cat > "${work}/in.fabric.lj" <<EOF
units lj
lattice fcc 0.8442
region box block 0 6 0 6 0 6
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
neighbor 0.3 bin
neigh_modify every 5 check no
fix 1 all nve
timestep 0.005
thermo 10
processors 2 2 1
comm_variant utofu_3stage
run 100
EOF
  cat > "${work}/in.quick.lj" <<EOF
units lj
lattice fcc 0.8442
region box block 0 4 0 4 0 4
create_box 1 box
create_atoms 1 box
mass 1 1.0
velocity all create 1.44 87287
pair_style lj/cut 2.5
pair_coeff 1 1 1.0 1.0
neighbor 0.3 bin
neigh_modify every 5 check no
fix 1 all nve
timestep 0.005
thermo 10
comm_variant ref
run 200
EOF
  cat > "${work}/jobs.txt" <<EOF
acme fabric ${work}/in.fabric.lj        # drives the TNI byte series
beta late ${work}/in.quick.lj 1         # 1 ms deadline: must breach SLO
EOF
  "${build_dir}/examples/lmp_serve" --journal "${work}/journal.bin" \
      --workdir "${work}/wd" --jobs "${work}/jobs.txt" --workers 2 \
      --slice 20 --listen "${work}/lmp.sock" --telemetry-ms 50 \
      --linger-ms 20000 > "${work}/serve.log" 2>&1 &
  local pid=$!
  # The workload drained once the server announces its linger window.
  local waited=0
  while ! grep -q '^lingering' "${work}/serve.log" 2>/dev/null; do
    if ! kill -0 "${pid}" 2>/dev/null; then
      echo "telemetry smoke: server exited before the workload drained"
      cat "${work}/serve.log"
      return 1
    fi
    sleep 0.05
    waited=$((waited + 1))
    if [[ ${waited} -gt 1200 ]]; then
      echo "telemetry smoke: workload never drained"
      kill -9 "${pid}" 2>/dev/null || true
      return 1
    fi
  done
  "${build_dir}/examples/lmp_top" --connect "${work}/lmp.sock" --once --json \
      > "${work}/snap.json" \
      || { echo "telemetry smoke: lmp_top --once --json failed"
           kill -9 "${pid}" 2>/dev/null || true; return 1; }
  "${build_dir}/examples/lmp_top" --connect "${work}/lmp.sock" --once \
      > "${work}/dash.txt" \
      || { echo "telemetry smoke: lmp_top dashboard render failed"
           kill -9 "${pid}" 2>/dev/null || true; return 1; }
  kill "${pid}" 2>/dev/null || true
  wait "${pid}" 2>/dev/null || true
  python3 - "${work}/snap.json" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
assert snap["schema"] == "lmp-telemetry-snapshot" and snap["version"] == 2
assert snap["ticks"] > 0
mem = snap["memory"]
assert mem["rss_bytes"] > 0, mem
assert len(mem["rss_series"]) > 0 and any(v > 0 for _, v in mem["rss_series"])
if mem["tracked"]:
    assert mem["heap_high_water_bytes"] > 0, mem
    assert any(v > 0 for _, v in mem["heap_live_series"]), mem
srv = snap["server"]
assert srv["steps_in_window"] > 0, srv["steps_in_window"]
assert len(srv["step_series"]) > 0 and any(v > 0 for _, v in srv["step_series"])
tenants = {t["tenant"]: t for t in snap["tenants"]}
assert set(tenants) == {"acme", "beta"}, sorted(tenants)
assert not tenants["acme"]["breached"], tenants["acme"]
beta = tenants["beta"]
assert beta["breached"] and beta["breach_deadline"], beta
assert beta["deadline_misses"] >= 1 and "deadline-hit-rate" in beta["detail"]
busy = [t for t in snap["tnis"] if t["bytes_total"] > 0]
assert busy, "utofu_3stage job charged no TNI bytes"
assert any(len(t["bytes_series"]) > 0 for t in busy), "no TNI byte series"
entered = [e for e in snap["slo_events"] if e["entered"]]
assert entered and entered[0]["tenant"] == "beta", snap["slo_events"]
states = {j["name"]: j["state"] for j in snap["jobs"]}
assert states.get("fabric") == "done" and states.get("late") == "failed", states
print(f"telemetry smoke: snapshot valid — {srv['steps_in_window']:.0f} steps "
      f"in window, {len(busy)} busy TNI(s), beta in deadline breach")
EOF
  grep -q 'BREACH' "${work}/dash.txt" \
      || { echo "telemetry smoke: dashboard lacks the breach tag"
           cat "${work}/dash.txt"; return 1; }
  grep -Eq 'slo_breaches *\| *[1-9]' "${work}/serve.log" \
      || { echo "telemetry smoke: final stats table did not count the breach"
           cat "${work}/serve.log"; return 1; }
  echo "telemetry smoke: dashboard rendered breach; server counted it"
}

# Alloc smoke: the memory observability plane end to end. A traced run
# of the golden melt must emit a v4 report whose memory section carries
# nonzero per-stage allocation counts that sum exactly to the global
# counter (the "(unattributed)" slot guarantees the identity). Then the
# same workload under --alloc-guard must FAIL today — the step loop
# still allocates — with exit code 3 and a per-scope attribution table;
# the guard passing silently would mean it stopped watching.
run_alloc_smoke() {
  local build_dir="$1"
  echo "--- alloc smoke (${build_dir}) ---"
  local work
  work=$(mktemp -d)
  trap 'rm -rf "${work}"' RETURN
  "${build_dir}/examples/lmp_cli" examples/in.melt.lj 6tni_p2p \
      --report "${work}/melt.report.json" \
      --trace "${work}/melt.trace.json" --trace-alloc > /dev/null
  python3 - "${work}/melt.report.json" "${work}/melt.trace.json" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[2]))
insts = [e for e in trace["traceEvents"]
         if e.get("ph") == "i" and e.get("name") == "alloc"]
assert insts, "--trace-alloc recorded no allocation instants"
r = json.load(open(sys.argv[1]))
assert r["schema"] == "lmp-run-report" and r["version"] == 4
mem = r["memory"]
assert mem["tracked"], "build should carry LMP_ALLOC_TRACE=ON"
assert mem["total_allocs"] > 0 and mem["total_bytes"] > 0, mem
assert mem["heap_high_water_bytes"] > 0 and mem["rss_bytes"] > 0, mem
scopes = mem["scopes"]
staged = [k for k in scopes if k.startswith("stage:")]
assert staged, f"no per-stage attribution in {sorted(scopes)}"
assert all(scopes[k]["allocs"] > 0 for k in staged), scopes
sum_allocs = sum(s["allocs"] for s in scopes.values())
assert sum_allocs == mem["total_allocs"], (sum_allocs, mem["total_allocs"])
print(f"alloc smoke: report v4 memory consistent — {mem['total_allocs']} "
      f"allocs across {len(scopes)} scopes ({len(staged)} stages), "
      f"{len(insts)} trace instants, heap high water "
      f"{mem['heap_high_water_bytes']} bytes")
EOF
  local rc=0
  "${build_dir}/examples/lmp_cli" examples/in.melt.lj 6tni_p2p \
      --alloc-guard > "${work}/guard.log" 2>&1 || rc=$?
  if [[ ${rc} -ne 3 ]]; then
    echo "alloc smoke: --alloc-guard exited ${rc}, want 3 (steady state"
    echo "still allocates today; a pass means the guard went blind)"
    cat "${work}/guard.log"
    return 1
  fi
  grep -q 'alloc guard:.*FAIL' "${work}/guard.log" \
      || { echo "alloc smoke: guard verdict line missing"
           cat "${work}/guard.log"; return 1; }
  grep -Eq 'stage:[A-Za-z]+' "${work}/guard.log" \
      || { echo "alloc smoke: guard failure lacks per-stage attribution"
           cat "${work}/guard.log"; return 1; }
  echo "alloc smoke: guard failed with attribution, exit 3 as expected"
}

# Bench-compare smoke: regenerate the fig13 and overlap records in quick
# mode and gate them against the committed baselines. A missing baseline
# only warns (that is how a new bench seeds its first record); a
# tolerance breach fails CI. The overlap gate runs wide open (50%):
# its metric is a wall-clock ratio of two runs on a shared host.
run_bench_compare_smoke() {
  local build_dir="$1"
  echo "--- bench-compare smoke (${build_dir}) ---"
  local work
  work=$(mktemp -d)
  trap 'rm -rf "${work}"' RETURN
  LMP_BENCH_QUICK=1 LMP_BENCH_DIR="${work}" \
      "${build_dir}/bench/fig13_strong_scaling" > /dev/null
  "${build_dir}/bench/bench_compare" \
      bench/baselines/BENCH_fig13_strong_scaling.json \
      "${work}/BENCH_fig13_strong_scaling.json"
  LMP_BENCH_QUICK=1 LMP_BENCH_DIR="${work}" \
      "${build_dir}/bench/bench_overlap" > /dev/null
  "${build_dir}/bench/bench_compare" \
      bench/baselines/BENCH_overlap.json \
      "${work}/BENCH_overlap.json" --tol 50
  # Same wide-open gate for the telemetry overhead ratio: it compares
  # two wall-clock runs on a shared host, only a sampler that lands on
  # the step path would move it past 50%.
  LMP_BENCH_QUICK=1 LMP_BENCH_DIR="${work}" \
      "${build_dir}/bench/bench_telemetry" > /dev/null
  "${build_dir}/bench/bench_compare" \
      bench/baselines/BENCH_telemetry.json \
      "${work}/BENCH_telemetry.json" --tol 50
  # Alloc bench: the on/off wall ratio gets the same wide shared-host
  # gate; steady_state_step_allocs is the ratchet — deterministic
  # per-step counting, so the tolerance only absorbs small step-count
  # phase effects, and driving it to zero can only tighten the baseline.
  LMP_BENCH_QUICK=1 LMP_BENCH_DIR="${work}" \
      "${build_dir}/bench/bench_alloc" > /dev/null
  "${build_dir}/bench/bench_compare" \
      bench/baselines/BENCH_alloc.json \
      "${work}/BENCH_alloc.json" --tol 50
  # The exit codes are the gate's contract: an unreadable fresh record
  # is a hard error (2), a missing baseline only warns (0).
  echo '{"name": "overlap", "metrics": {' > "${work}/malformed.json"
  local rc=0
  "${build_dir}/bench/bench_compare" bench/baselines/BENCH_overlap.json \
      "${work}/malformed.json" > /dev/null 2>&1 || rc=$?
  [[ ${rc} -eq 2 ]] \
      || { echo "bench_compare: malformed fresh record exited ${rc}, want 2"; return 1; }
  "${build_dir}/bench/bench_compare" "${work}/no-such-baseline.json" \
      "${work}/BENCH_overlap.json" > /dev/null \
      || { echo "bench_compare: missing baseline must exit 0"; return 1; }
}

# Newton-off stress slice: run the Newton-off comm, executor and EAM
# tests 4 x <runs> times in 4 concurrent loops, and fail on any failure.
# Newton off lets a neighbor run one forward ahead, so a receiver can
# find two forwards parked on one channel; the dispatcher's two-deep
# stash is what makes that legal, and the concurrent loads are what make
# it happen. Pass 1's 200 runs catch a 3.5% per-run failure rate with
# probability 0.999.
run_newton_off_stress() {
  local build_dir="$1" runs="$2"
  local filter='CommIntegration.NewtonOff*:Executor.*NewtonOff*:Stress.EamNewtonOff*'
  echo "--- Newton-off stress (${build_dir}, 4 loops x ${runs} runs) ---"
  local ntests
  ntests=$("${build_dir}/tests/lmp_tests" --gtest_filter="${filter}" \
      --gtest_list_tests | grep -c '^  ' || true)
  [[ ${ntests} -gt 0 ]] \
      || { echo "newton-off stress: filter '${filter}' matches no test"; return 1; }
  local work
  work=$(mktemp -d)
  trap 'rm -rf "${work}"' RETURN
  local loop
  for loop in 1 2 3 4; do
    (
      for ((i = 0; i < runs; ++i)); do
        "${build_dir}/tests/lmp_tests" --gtest_filter="${filter}" \
            > "${work}/loop${loop}.log" 2>&1 \
            || { echo "=== loop ${loop}, run ${i}: FAILED"
                 cat "${work}/loop${loop}.log"; } >> "${work}/failed.${loop}.log"
      done
    ) &
  done
  wait
  if compgen -G "${work}/failed.*.log" > /dev/null; then
    echo "newton-off stress: $(cat "${work}"/failed.*.log | grep -c '^=== loop')" \
         "of $((4 * runs)) runs failed; the first:"
    cat "${work}"/failed.*.log | head -60
    return 1
  fi
  echo "newton-off stress: $((4 * runs)) runs of ${ntests} tests, 0 failures"
}

# The executable targets a CMakeLists.txt declares: the names of its
# foreach(<var> ...) lists and its add_executable(<name> calls.
cmake_targets() {
  sed 's/#.*//' "$1" | tr '\n' ' ' \
      | grep -oE 'foreach\([A-Za-z_]+ [^)]*\)|add_executable\([A-Za-z0-9_]+' \
      | sed -E 's/^foreach\([A-Za-z_]+ //; s/\)$//; s/^add_executable\(//' \
      | tr ' ' '\n' | grep -v '^$' || true
}

# Target-gate guard: no program is built that nothing checks.
# - Every bench/ target is a paper reproduction (fig*/table*), the
#   bench_compare gate itself, or a bench_<x> whose committed
#   bench/baselines/BENCH_<x>.json run_bench_compare_smoke gates.
# - Every examples/ target is run, as .../examples/<name>, by some ci.sh
#   pass outside this guard.
# A program that prints output nobody checks is deleted, not added.
run_target_gate_guard() {
  echo "--- target-gate guard (every bench/ and examples/ target is gated) ---"
  local smoke passes targets t bad=0
  smoke=$(sed -n '/^run_bench_compare_smoke()/,/^}/p' ci.sh)
  targets=$(cmake_targets bench/CMakeLists.txt)
  grep -qx bench_compare <<< "${targets}" \
      || { echo "target-gate: found no bench_compare target; the parser went blind"; return 1; }
  for t in ${targets}; do
    case "${t}" in
      fig*|table*|bench_compare) continue ;;
      bench_*)
        local rec="bench/baselines/BENCH_${t#bench_}.json"
        if [[ -f "${rec}" ]] && grep -qF "${rec}" <<< "${smoke}"; then
          continue
        fi ;;
    esac
    echo "target-gate: bench/ target '${t}' is not a fig*/table* paper" \
         "reproduction, bench_compare, or a bench_<x> whose" \
         "bench/baselines/BENCH_<x>.json run_bench_compare_smoke gates"
    bad=1
  done

  passes=$(sed '/^run_target_gate_guard()/,/^}/d; /^[[:space:]]*#/d' ci.sh)
  targets=$(cmake_targets examples/CMakeLists.txt)
  grep -qx lmp_cli <<< "${targets}" \
      || { echo "target-gate: found no lmp_cli target; the parser went blind"; return 1; }
  for t in ${targets}; do
    grep -qE "/examples/${t}([^A-Za-z0-9_]|\$)" <<< "${passes}" && continue
    echo "target-gate: examples/ target '${t}' is run by no ci.sh pass" \
         "(no .../examples/${t} invocation)"
    bad=1
  done
  return "${bad}"
}

# Layering guard: src/util is the leaf layer. No file under it may
# include a header from another src/ module, and lmp_util may link no
# other lmp_* library — that is what keeps the old util<->obs link cycle
# from coming back.
run_layering_guard() {
  echo "--- layering guard (src/util is a leaf) ---"
  local mods bad
  mods=$(ls -d src/*/ | xargs -n1 basename | grep -vx util | paste -sd'|')
  bad=$(grep -nE "#include \"(${mods})/" src/util/* || true)
  if [[ -n "${bad}" ]]; then
    echo "layering: src/util includes another src/ module:"
    echo "${bad}"
    return 1
  fi
  local links
  links=$(tr '\n' ' ' < src/util/CMakeLists.txt \
      | grep -oE 'target_link_libraries\([^)]*\)' \
      | grep -oE 'lmp_[A-Za-z_]+' | grep -vx lmp_util || true)
  if [[ -n "${links}" ]]; then
    echo "layering: lmp_util links other lmp_* targets: ${links}"
    return 1
  fi
}

# Reachability guard: every out-of-line lmp:: function defined in src/
# must be linked by a production binary — examples/, bench/, or the
# repository benchmark's lmp_bench, built from benchmark/ as a consumer
# of the libraries — or be listed in tests/reachability_allowlist.txt
# with the one-word reason a test keeps it. Both trees build at -O0 with
# a section per function and --gc-sections, so a function is in a binary
# only if that binary can call it. Template instantiations and inline
# functions are weak symbols and out of scope.
run_reachability_guard() {
  echo "--- reachability guard (no src/ function only tests reach) ---"
  local flags=(-DCMAKE_BUILD_TYPE=Debug
      "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
      "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
  cmake -B build-ci-reach -S . "${flags[@]}" > /dev/null
  # Relink every binary: a stale one of a deleted target would still
  # count as production.
  find build-ci-reach/examples build-ci-reach/bench -maxdepth 1 -type f \
      -perm -u+x -delete 2> /dev/null || true
  cmake --build build-ci-reach -j "${JOBS}" > /dev/null
  cmake -B build-ci-reach-bench -S benchmark "${flags[@]}" > /dev/null
  cmake --build build-ci-reach-bench -j "${JOBS}" --target lmp_bench > /dev/null
  python3 - build-ci-reach build-ci-reach-bench/lmp_bench \
      tests/reachability_allowlist.txt <<'EOF'
import pathlib, re, subprocess, sys
build, lmp_bench, allow_path = map(pathlib.Path, sys.argv[1:])
REASONS = {"oracle", "observer", "fixture", "durability", "codec", "reference"}

def symbols(paths, kinds=None):
    out = subprocess.run(["nm", "-C", "--defined-only", *map(str, paths)],
                         capture_output=True, text=True, check=True).stdout
    found = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[2].startswith("lmp::") and \
                (kinds is None or parts[1] in kinds):
            found.add(parts[2])
    return found

def name_of(sig):
    op = sig.find("operator()")
    name = sig[:sig.index("(", op + len("operator()") if op >= 0 else 0)]
    return re.sub(r"\[abi:\w+\]", "", name)

def executables(d):
    return [p for p in d.iterdir() if p.is_file() and p.stat().st_mode & 0o111]

def has_source(obj):
    # build/src/<mod>/CMakeFiles/<target>.dir/<file>.cpp.o -> src/<mod>/<file>.cpp;
    # a reused tree keeps the objects of deleted sources, which no binary links.
    parts = obj.relative_to(build).parts
    i = next(k for k, p in enumerate(parts) if p.endswith(".dir"))
    return pathlib.Path(*parts[:i - 1], *parts[i + 1:]).with_suffix("").exists()

objects = sorted(o for o in (build / "src").rglob("*.o") if has_source(o))
defined = {s for s in symbols(objects, {"T"})
           if "<" not in re.sub(r"operator\W+", "", name_of(s))}
prod = executables(build / "examples") + executables(build / "bench") + [lmp_bench]
reached = symbols(prod)
tested = symbols([build / "tests" / "lmp_tests"])

errors = []
allowed = set()
for n, line in enumerate(allow_path.read_text().splitlines(), 1):
    line = line.split("#", 1)[0].strip()
    if not line:
        continue
    reason, _, key = line.partition(" ")
    key = key.strip()
    where = f"{allow_path}:{n}: {key}"
    if reason not in REASONS:
        errors.append(f"{where}: reason '{reason}' is not one of {sorted(REASONS)}")
    hits = {s for s in defined if key == (s if "(" in key else name_of(s))}
    if not hits:
        errors.append(f"{where}: names no out-of-line src/ function")
    elif hits <= reached:
        errors.append(f"{where}: production links it; drop the entry")
    elif not (hits - reached) <= tested:
        errors.append(f"{where}: no test links it either; delete the function")
    allowed |= hits
for s in sorted(defined - reached - allowed):
    errors.append(("test-only: " if s in tested else "unlinked:  ") + s)
print(f"reachability: {len(defined)} src/ functions, {len(prod)} production "
      f"binaries, {len(allowed - reached)} allowlisted")
if errors:
    print("reachability: delete these functions (and the tests that only pin "
          "them) or allowlist them with a reason:")
    print("\n".join("  " + e for e in errors))
    sys.exit(1)
EOF
}

echo "=== pass 1: -Werror build + ctest ==="
run_layering_guard
run_target_gate_guard
run_reachability_guard
cmake -B build-ci -S . -DLMP_WERROR=ON
cmake --build build-ci -j "${JOBS}"
ctest --test-dir build-ci --output-on-failure -j "${JOBS}"
run_newton_off_stress build-ci 50
run_restart_smoke build-ci
run_trace_smoke build-ci
run_integrity_smoke build-ci
run_executor_smoke build-ci
run_serve_smoke build-ci
run_telemetry_smoke build-ci
run_alloc_smoke build-ci
run_bench_compare_smoke build-ci

if [[ "${1:-}" == "--fast" ]]; then
  echo "ci.sh: --fast: skipping sanitizer pass"
  exit 0
fi

echo "=== pass 2: ASan+UBSan build + ctest ==="
cmake -B build-ci-asan -S . -DLMP_WERROR=ON -DLMP_SANITIZE=address,undefined
cmake --build build-ci-asan -j "${JOBS}"
# UBSan only prints by default; halting turns every finding into a
# failed test (e.g. CommP2pMpi.ZeroLengthReceivesAreEmptyPayloads).
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-ci-asan --output-on-failure -j "${JOBS}"
run_restart_smoke build-ci-asan
run_trace_smoke build-ci-asan
run_integrity_smoke build-ci-asan
run_executor_smoke build-ci-asan
run_serve_smoke build-ci-asan
run_telemetry_smoke build-ci-asan
run_alloc_smoke build-ci-asan

echo "=== pass 2b: TSan build + concurrency test slice ==="
# TSan cannot share a process with ASan, so it gets its own tree; the
# slice covers the code that actually shares memory across threads —
# the spin/fork-join pools, the task-graph scheduler, the notice
# dispatcher (the async executor's moving parts), the TofuD fabric
# model (lock-free VCQ lookups and empty polls, shared-locked STADD
# lookups, concurrent posters), the telemetry plane's
# sampler/series/SLO/stream machinery (admission-only servers), the
# split force path's unit tests (footprints, the sparse join that drains
# and re-zeroes each group's private buffer, abandoned evaluations), and
# the EAM and LJ (ref, 6tni_p2p, utofu_3stage) executor comparisons:
# real simulations whose async runs put the step DAG's force groups,
# sparse joins, mid-pair joins and forward waits on the pool (a few
# seconds under TSan). utofu_3stage's receives are views of the ring
# slots a peer's put writes.
cmake -B build-ci-tsan -S . -DLMP_WERROR=ON -DLMP_SANITIZE=thread
cmake --build build-ci-tsan -j "${JOBS}" --target lmp_tests
ctest --test-dir build-ci-tsan --output-on-failure -j "${JOBS}" \
    -R 'TaskGraph|SpinThreadPool|ForkJoin|NoticeDispatcher|TimeSeries|SloAccountant|TelemetrySampler|StreamWatch|AllocTracker|Network|RegisteredBuffer|UtofuContext|ForceGroups|LjSplit|EamSplit|Executor\..*Eam|Executor\.AsyncMatchesBarrierBitwiseLj(Ref|P2p|Utofu3Stage)'
run_newton_off_stress build-ci-tsan 3

echo "=== pass 3: LMP_TRACE=OFF LMP_ALLOC_TRACE=OFF build (instrumentation compiles out) ==="
cmake -B build-ci-notrace -S . -DLMP_WERROR=ON -DLMP_TRACE=OFF \
    -DLMP_ALLOC_TRACE=OFF
cmake --build build-ci-notrace -j "${JOBS}"
ctest --test-dir build-ci-notrace --output-on-failure -j "${JOBS}"
# Observability must be free AND inert: the stripped build's golden
# trajectories, the LJ melt and the EAM copper (whose inlined spline
# kernel is where instrumentation could perturb code generation), must
# be bitwise-identical to the fully instrumented ones.
golden_dir=$(mktemp -d)
trap 'rm -rf "${golden_dir}"' EXIT
for script in in.melt.lj in.eam.cu; do
  build-ci/examples/lmp_cli "examples/${script}" 6tni_p2p \
      --dump-final "${golden_dir}/${script}.instrumented.dump" > /dev/null
  build-ci-notrace/examples/lmp_cli "examples/${script}" 6tni_p2p \
      --dump-final "${golden_dir}/${script}.stripped.dump" > /dev/null
  diff "${golden_dir}/${script}.instrumented.dump" \
      "${golden_dir}/${script}.stripped.dump" \
      || { echo "pass 3: stripped build's ${script} trajectory diverged"; exit 1; }
done
echo "pass 3: stripped-build trajectories bitwise-identical to instrumented"

echo "ci.sh: all passes green"
