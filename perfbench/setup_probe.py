"""Set-up of one workload in a fresh interpreter; prints ``ready`` when the
first experiment could start.  run.py times this from process start."""

import argparse

import workloads as wl

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    es = wl.load_package()
    wl.prepare(es, args.workload, wl.draw_inputs(args.workload, args.seed))
    print("ready", flush=True)
