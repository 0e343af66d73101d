#!/usr/bin/env bash
# Smoke runs of the irtr-lab console script found on PATH.
#
#   scripts/smoke.sh OUT_DIR [SIGMA]
#
# Runs every figure on the edge cases below, each into its own directory
# under OUT_DIR, beside the configs it reads and the stderr and exit status of
# the runs that must fail.  It also records the command-line surface: the
# help of irtr-lab and of each figure at 80 columns, and the stderr and exit
# status of configuration errors.  It exits nonzero if a run does not end as
# expected or a check below fails.  With SIGMA, every run that computes gets
# --sigma SIGMA; the help and configuration errors do not depend on it.
#
# Two calls must write the same bytes but for each run's manifest.json:
#
#   scripts/smoke.sh smoke/first && scripts/smoke.sh smoke/second
#   diff -r -x manifest.json smoke/first smoke/second
#
# Runs compute in units of sigma, so a call at another SIGMA writes the same
# bytes but for the '# sigma=' line (diff -I '^# sigma=').
#
# With SMOKE_RECORD_ONLY=1 the runs that must fail record their stderr and
# exit status without judging them, for a tree whose messages may differ on
# purpose, as a base commit's do; scripts/compare_smoke.py judges the files.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 OUT_DIR [SIGMA]" >&2
  exit 2
fi
out=$1
sigma=${2:-}
mkdir -p "$out"

lab() {
  irtr-lab "$@" ${sigma:+--sigma "$sigma"}
}

# Whether the runs that must fail are judged.
judged() {
  [ "${SMOKE_RECORD_ONLY:-0}" != 1 ]
}

# A run that must exit 3 with the direct-imaging drift error, naming its row.
# Its stderr, then its exit status, go to OUT_DIR/NAME.err.
drift_failure() {
  local name=$1 status=0
  shift
  lab "$@" --out "$out/$name" 2> "$out/$name.err" || status=$?
  echo "exit status $status" >> "$out/$name.err"
  cat "$out/$name.err"
  if judged && { [ "$status" -ne 3 ] ||
    ! grep -Eq '^error: row [0-9]+: direct-imaging F(11|22) drift ' "$out/$name.err"; }; then
    echo "$name: expected exit status 3 and a drift error" >&2
    exit 1
  fi
}

# A run that must exit 3 with the error MESSAGE, which names its sweep row.
# Its stderr, then its exit status, go to OUT_DIR/NAME.err.
expect_failure() {
  local name=$1 message=$2 status=0
  shift 2
  lab "$@" --out "$out/$name" 2> "$out/$name.err" || status=$?
  echo "exit status $status" >> "$out/$name.err"
  cat "$out/$name.err"
  if judged && { [ "$status" -ne 3 ] || ! grep -Fxq "error: $message" "$out/$name.err"; }; then
    echo "$name: expected exit status 3 and 'error: $message'" >&2
    exit 1
  fi
}

# The help of irtr-lab (no arguments) or of one figure, at 80 columns, then its
# exit status, go to OUT_DIR/help.txt or OUT_DIR/help-FIGURE.txt.
record_help() {
  local name=help${1:+-$1} status=0
  COLUMNS=80 irtr-lab "$@" --help > "$out/$name.txt" || status=$?
  echo "exit status $status" >> "$out/$name.txt"
  if [ "$status" -ne 0 ]; then
    echo "$name: expected exit status 0" >&2
    exit 1
  fi
}

# A run that must exit 2 with the configuration error MESSAGE.  It runs in
# OUT_DIR, so config files are named by relative paths, and without SIGMA.
# Its stderr, then its exit status, go to OUT_DIR/NAME.err.
config_failure() {
  local name=$1 message=$2 status=0
  shift 2
  (cd "$out" && irtr-lab "$@" --out "$name") 2> "$out/$name.err" || status=$?
  echo "exit status $status" >> "$out/$name.err"
  cat "$out/$name.err"
  if judged && { [ "$status" -ne 2 ] || ! grep -Fxq "config error: $message" "$out/$name.err"; }; then
    echo "$name: expected exit status 2 and 'config error: $message'" >&2
    exit 1
  fi
}

record_help
for figure in fig1 fig2 fig3 fig4 fig5 custom; do
  record_help "$figure"
done
printf '[fig1]\nbogus = 1\n' > "$out/unknown-key.ini"
printf '[fig7]\nseed = 1\n' > "$out/unknown-section.ini"
printf '[common]\nsigma = y\n' > "$out/sigma-not-a-number.ini"
printf '[fig3]\nfrontier_samples = 1000000000000\n' > "$out/frontier-too-large.ini"
printf '[fig2]\nnodes_per_panel = 100000\n' > "$out/rule-too-large.ini"
config_failure seed-not-an-integer "--seed: 'x' is not an integer" fig2 --seed x
config_failure unknown-key "config file unknown-key.ini, [fig1] bogus: unknown setting" \
  fig1 --config unknown-key.ini
config_failure unknown-section "config file unknown-section.ini: unknown section [fig7]" \
  fig1 --config unknown-section.ini
config_failure sigma-not-a-number \
  "config file sigma-not-a-number.ini, [common] sigma: 'y' is not a number" \
  fig3 --config sigma-not-a-number.ini
config_failure fig5-grid "--grid does not apply to fig5: it sweeps random samples, not a grid" \
  fig5 --grid 0.5:1:0.5
config_failure mode-cutoff-zz "--mode-cutoff: 'zz' must be an integer or 'adaptive'" \
  fig4 --mode-cutoff zz
# A grid of 1e18 values, which numpy refuses to allocate.  The run is capped at
# 2 GB of address space with one BLAS thread, so that a tree that builds the
# grid value by value fails fast.
(
  ulimit -v 2000000 && export OPENBLAS_NUM_THREADS=1 &&
    config_failure grid-too-large "grid of 1e+18 values is too large: Unable to allocate \
6.94 EiB for an array with shape (999999999999949952,) and data type int64" \
      fig1 --grid 0.05:1e12:1e-6
)
# A frontier of 1e12 samples, under the same cap.
(
  ulimit -v 2000000 && export OPENBLAS_NUM_THREADS=1 &&
    config_failure frontier-too-large "frontier_samples 1000000000000 is too large: Unable to \
allocate 7.28 TiB for an array with shape (1000000000000,) and data type int64" \
      fig3 --config frontier-too-large.ini
)
# A quadrature rule whose Gauss-Legendre companion matrix numpy refuses to
# allocate, under the same cap.
(
  ulimit -v 2000000 && export OPENBLAS_NUM_THREADS=1 &&
    config_failure rule-too-large "quadrature rule of panel_count 32 and nodes_per_panel 100000 \
is too large: Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data \
type float64" \
      fig2 --config rule-too-large.ini
)

# An odd panel count, whose ladder is the single pair of 4 and 8 half-window
# panels, with another node count, at the default tolerance.
printf '[common]\npanel_count = 7\nnodes_per_panel = 28\n' > "$out/p7n28.ini"
# On 24 nodes the direct-imaging FIMs of 4 and 8 panels drift apart by up to
# 2.3e-12 x QFIM: fig2 and fig3 exit 3.
printf '[common]\npanel_count = 7\nnodes_per_panel = 24\n' > "$out/p7n24.ini"
# On 4 and 8 half-window panels of 16 nodes the overlaps converge but the
# direct-imaging FIM drifts beyond abs_tolerance x QFIM: fig2 exits 3.
printf '[common]\npanel_count = 8\nnodes_per_panel = 16\n' > "$out/p8n16.ini"
# Two-point frontiers: at 0.2 sigma panel 1 writes both endpoints; at 60 sigma
# c_tilde is 3.3e-193, below the threshold, and panel 2 writes the empty
# no_constraint=true table.
printf '[common]\nfrontier_samples = 2\n' > "$out/frontier2.ini"

drift_failure fig2-p8n16 fig2 --config "$out/p8n16.ini"
drift_failure fig2-p7n24 fig2 --config "$out/p7n24.ini"
drift_failure fig3-p7n24 fig3 --config "$out/p7n24.ini"
# SPADE rows run in padded blocks of 128, in cutoff order, which one explicit
# cutoff leaves in sweep order: row 547, in the fifth block, is the first row
# in sweep order to fail the cutoff's mass criterion, and it alone runs again
# for the message.  From theta1 = 37.5 no adaptive cutoff up to 512 exists.
expect_failure fig4-cutoff300 "row 547: cutoff 300 leaves truncated mass bound 1.273e-14" \
  fig4 --grid 0:30:0.05 --mode-cutoff 300
expect_failure fig4-no-cutoff "row 3: no cutoff up to 512 meets the truncation criteria" \
  fig4 --grid 36:40:0.5
# At 1000 sigma the overlaps of the top pair, 16 and 32 panels, still drift
# apart: row 1 raises before row 2 is checked.
expect_failure fig2-drift-top \
  "row 1: quadrature drift 1.374e-03 exceeds tolerance 1.000e-12 on [-512, 512]" \
  fig2 --grid 1,1000,2000

for figure in fig1 fig2 fig3 fig4; do
  lab "$figure" --out "$out/$figure"
done
# 161 separations: the stacked overlap and direct-imaging passes end in a
# ragged block.
for figure in fig1 fig2; do
  lab "$figure" --grid 0.05:8.05:0.05 --out "$out/$figure-ragged"
done
# One sweep over every rung: the first three rows start on the top pair, and
# the others settle on (4, 8), (8, 16) and (16, 32).
for figure in fig1 fig2; do
  lab "$figure" --grid 1e-4,3e-3,0.0199,0.02,12,40,100,150,200,250,300,400 \
    --out "$out/$figure-rungs"
done
for figure in fig2 fig3; do
  lab "$figure" --config "$out/p7n28.ini" --out "$out/$figure-p7n28"
done
lab fig3 --grid 0.2,60 --config "$out/frontier2.ini" --out "$out/fig3-frontier2"
# SPADE over many cutoffs and blocks, then the default grid (theta1 = 0.05 puts a
# source on the axis) at one explicit cutoff.
lab fig4 --grid -20:20:0.05 --out "$out/fig4-wide"
lab fig4 --mode-cutoff 80 --out "$out/fig4-cutoff"
# An explicit cutoff above the adaptive cap of 512: the log-factorial table
# grows past the adaptive range.
lab fig4 --grid 0:2:0.5 --mode-cutoff 600 --out "$out/fig4-cutoff600"
lab fig5 --seed 1 --n-random 2000 --out "$out/fig5"
# Seeding edge cases, the largest seed and 0: fig5 draws from default_rng(seed),
# custom point p from default_rng(SeedSequence(seed).spawn(points)[p]).
lab fig5 --seed 18446744073709551615 --n-random 600 --out "$out/fig5-seed-max"
lab custom --theta1-grid -0.5,0,1.2 --theta2-grid 0.1,1,3 \
  --measurements random --n-random 600 --seed 0 --out "$out/custom-random-seed0"
lab custom --theta1-grid -0.5,0,1.2 --theta2-grid 0.1,1,3 \
  --measurements direct,spade,random --n-random 64 --seed 3 --out "$out/custom"
# Random listed first, with samples across two blocks; then one single
# measurement and no random rows.
lab custom --theta1-grid -0.5,0,1.2 --theta2-grid 0.1,1,3 \
  --measurements random,spade --n-random 600 --seed 3 --out "$out/custom-random-spade"
lab custom --theta1-grid -0.5,0,1.2 --theta2-grid 0.1,1,3 \
  --measurements direct --out "$out/custom-direct"
# Each separation's five points hold 1500 random samples, run in blocks of 1024
# and 476: a block boundary falls inside a point.
lab custom --theta1-grid -0.5,0,1.2,2,3 --theta2-grid 0.1,1 \
  --measurements random --n-random 300 --seed 5 --out "$out/custom-random-5x2"
# Random rows at both ends of the separation range: at 0.006 sigma rho's
# eigenvalues are 2.2e-6 and 0.999998, at 12 sigma they are balanced.
lab custom --theta1-grid 0,0.7 --theta2-grid 0.006,0.01,12 \
  --measurements random --n-random 300 --seed 2 --out "$out/custom-random-extremes"

# fig2 and custom share one sweep kernel: custom's direct rows at theta1 = 0
# hold fig2's delta1 and delta2 column bytes.
lab custom --theta1-grid 0 --theta2-grid 0.05:8.05:0.05 --measurements direct \
  --out "$out/custom-fig2"
diff <(grep -v '^#' "$out/fig2-ragged/fig2.csv" | cut -d, -f2,3) \
  <(grep -v '^#' "$out/custom-fig2/custom.csv" | cut -d, -f5,6)
# fig4 and custom share the SPADE route: custom's SPADE rows at theta2 = 0.1
# hold fig4's delta1 and delta2 column bytes.
lab custom --theta1-grid -20:20:0.05 --theta2-grid 0.1 --measurements spade \
  --out "$out/custom-fig4"
diff <(grep -v '^#' "$out/fig4-wide/fig4.csv" | cut -d, -f2,3) \
  <(grep -v '^#' "$out/custom-fig4/custom.csv" | cut -d, -f5,6)
