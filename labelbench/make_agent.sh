#!/usr/bin/env bash
# Rebuilds labelbench/agent.npz, the trained Q-network the benchmark loads at
# set-up.  Run from the repository root; about 40 s on 2 vCPUs.  The world and
# the training split come from the CLI's default --seed (WorldConfig's seed),
# so the agent is trained on the benchmark world.  Replacing the agent changes
# the benchmark.
set -euo pipefail
export PYTHONPATH=src OPENBLAS_NUM_THREADS=1
mkdir -p .labelbench_run
python3 -m repro.cli --seed 20200208 record --dataset mscoco2017 --items 500 \
    --out .labelbench_run/agent_truth.npz
python3 -m repro.cli --seed 20200208 train --truth .labelbench_run/agent_truth.npz \
    --algo dueling_dqn --episodes 400 --hidden 256 --out labelbench/agent.npz
rm -r .labelbench_run
