#!/usr/bin/env bash
# Usage, from anywhere, with energymimo on PATH: bash .github/same_bytes.sh
set -euo pipefail
cd "$(dirname "$0")/.."
d=$(mktemp -d); trap 'rm -rf "$d"' EXIT
cfg() { local name=$1; shift; printf '%s\n' "$@" > "$d/$name.cfg"; }  # cfg NAME LINE...: write $d/NAME.cfg
# same NAME [exit=CODE] SETTING... -- ARGS runs `energymimo ARGS` once per SETTING, a bare N
# being --threads N and VAR=value an environment setting. Every run must exit CODE (0 by
# default), leave no CSV unless it exits 0, and match the first run byte for byte in CSV,
# stderr and stdout, less the stdout line "wrote N rows to PATH".
same() {
  local name=$1 want=0 settings=() s f; shift
  if [[ $1 == exit=* ]]; then want=${1#exit=}; shift; fi
  while [[ $1 != -- ]]; do settings+=("$1"); shift; done; shift
  local first=$d/$name.${settings[0]}
  for s in "${settings[@]}"; do
    local vars=() threads=(--threads "$s") run=$d/$name.$s code=0
    if [[ $s == *=* ]]; then vars=("$s") threads=(); fi
    env "${vars[@]}" energymimo "$@" "${threads[@]}" --out "$run.csv" 2> "$run.err" \
      | sed '/^wrote /d' > "$run.out" || code=$?
    [[ $code == "$want" ]] || { echo "$name at $s: exit $code, expected $want" >&2; cat "$run.err" >&2; exit 1; }
    [[ $code == 0 || ! -e $run.csv ]] || { echo "$name at $s: exit $code left a CSV" >&2; exit 1; }
    for f in out err csv; do [[ ! -e $first.$f && ! -e $run.$f ]] || cmp "$first.$f" "$run.$f"; done
  done
}
cfg saturating m_antennas=16 k_users=1 subcarriers=1 precoders=zf,min_pa,saturating p_max_watts=0.05 realizations=4100
same saturating 1 3 -- run --config "$d/saturating.cfg"  # the cap binds: closed-form fill, 3 blocks of <= 2,048
same wideband 1 2 3 -- run --config bench/workloads/wideband.cfg --realizations 4  # one workspace per worker
same wideband.mmap 1 MALLOC_MMAP_THRESHOLD_=131072 -- run --config bench/workloads/wideband.cfg --realizations 4
cfg los_zf m_antennas=16 k_users=3 subcarriers=4 channel=los precoders=zf realizations=400
same los_zf 1 2 -- run --config "$d/los_zf.cfg"  # the LOS channel branch, 3 blocks of <= 170
cfg freq_taps m_antennas=16 k_users=3 subcarriers=8 freq_taps=3 realizations=200
same freq_taps 1 2 -- run --config "$d/freq_taps.cfg"  # the correlated-taps channel branch, 3 blocks of <= 85
cfg min_pa_zf m_antennas=16 k_users=2 subcarriers=32 precoders=min_pa,zf realizations=300
same min_pa_zf 1 2 -- run --config "$d/min_pa_zf.cfg"  # two solvers share each of 10 blocks' packed products
cfg min_pa m_antennas=16 k_users=2 subcarriers=8 precoders=min_pa realizations=300
same min_pa 1 2 -- run --config "$d/min_pa.cfg"  # no zf: empty gain cells in 3 blocks of <= 128
cfg zf_readback m_antennas=16 k_users=6 subcarriers=8 precoders=zf,min_pa realizations=150
same zf_readback 1 2 -- run --config "$d/zf_readback.cfg"  # K = 6 > ZF_MAP_MAX_USERS: zf's powers from the kernel
cfg sweep_k6 m_antennas=16 k_users=6 subcarriers=32 precoders=zf,min_pa realizations=60
same sweep_k6 1 2 OPENBLAS_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 -- run --config "$d/sweep_k6.cfg"  # K = 6 > STACK_LAST_MAP_MAX_USERS
cfg sweep_k1 m_antennas=16 k_users=1 subcarriers=32 precoders=zf,min_pa realizations=60
same sweep_k1 1 2 OPENBLAS_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 -- run --config "$d/sweep_k1.cfg"  # K = 1: no pair above the diagonal
cfg sweep_k3 m_antennas=16 k_users=3 subcarriers=32 precoders=zf,min_pa realizations=60
same sweep_k3 1 2 OPENBLAS_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 -- run --config "$d/sweep_k3.cfg"  # K = 3 on the stack-last map
cfg los_min_pa m_antennas=16 k_users=1 subcarriers=4 channel=los precoders=min_pa seed=11 realizations=1200
same los_min_pa exit=2 1 2 -- run --config "$d/los_min_pa.cfg"  # realization 0 keeps fewer antennas than K
same k_sweep 1 2 3 -- asymptotic --config bench/workloads/asymptotic.cfg --realizations 200  # 4 blocks of <= 51
cfg k_sweep_infeasible m_antennas=8 asym_mode=k_sweep k_min=1 k_max=10 realizations=300
same k_sweep_infeasible 1 2 -- asymptotic --config "$d/k_sweep_infeasible.cfg"  # empty plan cells cross slices
cfg q_error m_antennas=32 k_users=4 asym_mode=q_error q_list=4,64 realizations=6
same q_error 1 2 OPENBLAS_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 -- asymptotic --config "$d/q_error.cfg"  # zf alone
cfg ma_curve m_antennas=40 k_users=3 asym_mode=ma_curve realizations=2000
same ma_curve 1 2 -- asymptotic --config "$d/ma_curve.cfg"  # averages the traces of 3 blocks of <= 682
cfg convergence m_antennas=16 k_users=2 subcarriers=8 oracle=false realizations=300
same convergence 1 2 MALLOC_MMAP_THRESHOLD_=131072 -- convergence --config "$d/convergence.cfg"  # 3 blocks of <= 128
cfg analytic m_antennas=32 k_users=1 subcarriers=1 oracle=true realizations=3000
same analytic 1 2 -- convergence --config "$d/analytic.cfg"  # closed-form reference, 3 blocks of <= 1,024
cfg oracle_q3 m_antennas=6 k_users=2 subcarriers=3 oracle=true realizations=2000
same oracle_q3 1 2 -- convergence --config "$d/oracle_q3.cfg"  # one stacked cone-oracle solve per block of <= 910
cfg oracle_skipped m_antennas=16 k_users=2 subcarriers=8 oracle=true realizations=300
same oracle_skipped 1 2 -- convergence --config "$d/oracle_skipped.cfg"  # past the oracle guard: a warning
same oracle 1 2 -- convergence --config bench/workloads/oracle.cfg --realizations 300  # 3 blocks of <= 128
same wideband.blas OPENBLAS_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 -- run --config bench/workloads/wideband.cfg --realizations 6
same narrowband.blas OPENBLAS_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 -- run --config bench/workloads/narrowband.cfg --realizations 6
same oracle.blas OPENBLAS_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 -- convergence --config bench/workloads/oracle.cfg --realizations 6
same validate.blas OPENBLAS_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 -- validate --seed 3
