#!/usr/bin/env bash
# Regenerates every paper table/figure; outputs land in results/.
#
# Builds the binaries once, then runs each one directly, so every
# results/<bin>.txt holds only that binary's own output (no cargo
# progress lines) and is byte-stable across runs. Exits non-zero if the
# build or any binary fails.
set -u
cd "$(dirname "${BASH_SOURCE[0]}")"
bins=(table2 fig04_directx fig05_direct_rx fig06_sim_trajectory
      fig07_exp_characterization fig08_open_cnot fig09_cr_tomography
      fig10_zz_interaction fig11_qutrit_counter fig12_benchmarks
      fig13_rb ablation_sources extra_directx_irb extra_zne extra_qaoa_scaling extra_leakage)
cargo build --release -p repro-bench --bins || exit 1
target="${CARGO_TARGET_DIR:-target}"
status=0
for bin in "${bins[@]}"; do
  echo "=== $bin ==="
  if "$target/release/$bin" > "results/$bin.txt" 2>&1; then
    echo "ok -> results/$bin.txt"
  else
    echo "FAILED (see results/$bin.txt)"
    status=1
  fi
done
exit "$status"
