#!/bin/sh
# Regenerate the ten paper artefacts: every table and figure, §V, the
# calibration and the ablation. Outputs: console tables/charts +
# results/*.csv + results/*.svg.
#
# All flags are forwarded to every binary, e.g.:
#   ./run_all_experiments.sh --records 100000
#   ./run_all_experiments.sh --report-jsonl results/jobs.jsonl   # append JSONL job reports
# (`onepass run`/`onepass sim` take --report-jsonl too, and --trace-out for a Chrome trace.)
set -e
cargo build --release -p onepass-bench
for exp in exp_table1 exp_table2 exp_fig2 exp_fig3 exp_fig4 exp_table3 \
           exp_section5 exp_calibrate exp_ablation; do
    echo "=================================================================="
    ./target/release/$exp "$@"
    echo
done
