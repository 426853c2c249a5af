#!/usr/bin/env bash
# Run the same beamloc commands from two source trees and compare their outputs
# byte for byte.
#
#   bash .github/compare-with-base.sh BASE_TREE HEAD_TREE WORK_DIR
#
# Each tree runs `PYTHONPATH=<tree>/src python -m beamloc.cli` on its own
# shipped configs and on variants of them written here: tiny.yaml `run`, its
# cell-specific arms, its tiny-nlos variant (two sites, 8 dB shadow fading,
# los_only false) under `run` and `dataset`, paper-matrix.yaml `dataset`,
# paper-matrix.yaml `run` with max_epochs and patience 20, and `scenario` on
# tiny.yaml and paper-matrix.yaml. The script passes
# when `diff -r` finds no difference. Otherwise it prints the differing files,
# and passes only when HEAD_TREE's CHANGES.md has a line starting
# "Output bytes change:" that BASE_TREE's lacks.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
work=$(cd "$3" && pwd)

run_tree() {
    local name=$1 tree=$2
    local configs="$work/$name/configs" out="$work/$name/out"
    mkdir -p "$configs" "$out"
    python - "$tree/configs" "$configs" <<'EOF'
import sys

import yaml

shipped, target = sys.argv[1:]


def load(name):
    with open(f"{shipped}/{name}") as fh:
        return yaml.safe_load(fh)


def save(name, doc):
    with open(f"{target}/{name}", "w") as fh:
        yaml.safe_dump(doc, fh)


tiny = load("tiny.yaml")
save("tiny.yaml", tiny)
cells = load("tiny.yaml")
for experiment in cells["experiments"]:
    experiment["topology"] = "cell_specific"
save("tiny-cells.yaml", cells)
nlos = load("tiny.yaml")
nlos["dataset"]["los_only"] = False
nlos["scenario"].update(site_cols=2, grid_resolution_m=4.0)
nlos["propagation"]["shadow_fading_sigma"] = 8.0
save("tiny-nlos.yaml", nlos)
matrix = load("paper-matrix.yaml")
save("paper-matrix.yaml", matrix)
for experiment in matrix["experiments"]:
    if experiment.get("model", "mlp") == "mlp":
        experiment.setdefault("train", {}).update(max_epochs=20, patience=20)
save("paper-matrix-short.yaml", matrix)
EOF
    local imported
    imported=$(cd "$work" && PYTHONPATH="$tree/src" python -c 'import beamloc; print(beamloc.__file__)')
    case "$imported" in
        "$tree/src/"*) ;;
        *) echo "$name: beamloc imported from $imported, not from $tree/src" >&2; return 1 ;;
    esac
    local command config
    for command_config in run:tiny run:tiny-cells run:tiny-nlos dataset:tiny-nlos dataset:paper-matrix run:paper-matrix-short \
            scenario:tiny scenario:paper-matrix; do
        command=${command_config%%:*}
        config=${command_config#*:}
        (cd "$work" && PYTHONPATH="$tree/src" python -m beamloc.cli "$command" \
            --config "$configs/$config.yaml" --out "$out/$command-$config" > "$work/$name/$command-$config.stdout")
    done
}

run_tree base "$base"
run_tree head "$head"

if diff -r "$work/base/out" "$work/head/out" > "$work/diff.txt"; then
    echo "outputs are byte-identical to the base tree"
    exit 0
fi
echo "outputs that differ from the base tree:"
diff -rq "$work/base/out" "$work/head/out" || true
declared=$(comm -13 \
    <(grep '^Output bytes change:' "$base/CHANGES.md" 2>/dev/null | sort || true) \
    <(grep '^Output bytes change:' "$head/CHANGES.md" 2>/dev/null | sort || true))
if [ -n "$declared" ]; then
    echo "declared in CHANGES.md:"
    echo "$declared"
    exit 0
fi
echo "outputs changed, but CHANGES.md adds no line starting 'Output bytes change:'" >&2
exit 1
