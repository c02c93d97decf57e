package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path"
	"strings"
	"time"
)

// mpiFileLayer charges internal/mpi's source files to its sub-layers;
// the package's other files count as mpi.other.
var mpiFileLayer = map[string]string{
	"mailbox.go": "mpi.p2p", "p2p.go": "mpi.p2p",
	"coll.go": "mpi.coll", "topo.go": "mpi.coll", "persist.go": "mpi.coll", "nbrreq.go": "mpi.coll", "split.go": "mpi.coll",
	"rma.go":       "mpi.rma",
	"scheduler.go": "mpi.sched", "task.go": "mpi.sched", "mpi.go": "mpi.sched",
	"events.go": "mpi.events",
}

// packageLayer names the layer of each repository package whose CPU is
// reported on its own; par and rng are helpers charged to their caller.
var packageLayer = map[string]string{
	"gen": "gen", "graph": "graph", "order": "order", "distgraph": "distgraph",
	"matching": "matching", "transport": "transport", "analysis": "analysis",
	"par": "", "rng": "",
}

// gcRoots are the runtime functions whose stacks are garbage-collector
// work, wherever they were entered from.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcStart"}

// layerOfFrame returns the layer of a stack frame, given its function
// and source file, or "" for a frame to look past: a helper package, or
// code outside the repository (the Go runtime and standard library).
func layerOfFrame(fn, file string) string {
	if strings.HasPrefix(fn, "main.") {
		return "other" // the benchmark's own code
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	pkg := rest[:strings.IndexAny(rest+".", "./")]
	if pkg == "mpi" {
		if l, ok := mpiFileLayer[path.Base(file)]; ok {
			return l
		}
		return "mpi.other"
	}
	if l, ok := packageLayer[pkg]; ok {
		return l
	}
	return "other"
}

// classify charges one sampled stack, leaf first, to a layer: garbage
// collection wherever it appears, else the innermost repository frame
// that is not a helper, else the Go runtime (scheduler, idle, syscalls).
func classify(frames [][2]string) string {
	for _, f := range frames {
		for _, g := range gcRoots {
			if f[0] == g {
				return "gc"
			}
		}
	}
	for _, f := range frames {
		if l := layerOfFrame(f[0], f[1]); l != "" {
			return l
		}
	}
	return "runtime"
}

// cpuShares reads a CPU profile with the installed `go tool pprof`
// (offline, text output), charges each sample's time to a layer by its
// stack and returns each layer's share of the total in percent (layers
// without samples are absent), with the number of stacks read.
func cpuShares(profile string) (map[string]float64, int, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-lines", profile)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	byLayer := map[string]float64{}
	var total float64
	var frames [][2]string
	var weight time.Duration
	stacks := 0
	flush := func() {
		if len(frames) > 0 {
			byLayer[classify(frames)] += weight.Seconds()
			total += weight.Seconds()
			stacks++
		}
		frames, weight = nil, 0
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(strings.TrimSuffix(line, " (inline)"))
		if len(fields) < 2 || !strings.HasPrefix(line, " ") {
			continue // header lines
		}
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) == 3 {
			weight = d
			fields = fields[1:]
		}
		if len(fields) != 2 {
			continue
		}
		file, _, _ := strings.Cut(fields[1], ":")
		frames = append(frames, [2]string{fields[0], file})
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("profile %s holds no samples", profile)
	}
	for l := range byLayer {
		byLayer[l] *= 100 / total
	}
	return byLayer, stacks, nil
}
