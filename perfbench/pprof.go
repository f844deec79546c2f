package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuLayerFuncs names the functions whose cumulative CPU time gives each
// cpu.* layer: the split inside System.Run that no public call reaches.
var cpuLayerFuncs = map[string][]string{
	"cpu.construct_s": {"abndp/internal/ndp.NewSystem"},
	"cpu.place_s":     {"abndp/internal/sched.(*Scheduler).Place"},
	"cpu.memsys_s":    {"abndp/internal/ndp.(*System).issuePrefetch"},
	"cpu.dram_s":      {"abndp/internal/dram.(*Channel).Access"},
	"cpu.traveller_s": {"abndp/internal/traveller.(*Cache).Probe", "abndp/internal/traveller.(*Cache).Insert"},
	"cpu.gc_s":        {"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge"},
}

// startProfile starts a CPU profile of the traced sample into a temporary
// file (run.sh points TMPDIR into .bench_build/).
func startProfile() *os.File {
	f, err := os.CreateTemp("", "perfbench-*.pprof")
	if err != nil {
		fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fatal(err)
	}
	return f
}

// profileLayers takes the profile started by startProfile, after
// pprof.StopCPUProfile, through cpuLayers and removes it.
func profileLayers(f *os.File) (map[string]float64, error) {
	defer os.Remove(f.Name())
	if err := f.Close(); err != nil {
		return nil, err
	}
	return cpuLayers(f.Name(), cpuLayerFuncs)
}

// cpuLayers reads the CPU profile at path with `go tool pprof` and returns,
// per layer of layerFuncs, the CPU seconds of the samples whose stack
// (inlined frames included) passes through one of its functions, plus
// cpu.total_s.
func cpuLayers(path string, layerFuncs map[string][]string) (map[string]float64, error) {
	out := map[string]float64{}
	for layer, funcs := range layerFuncs {
		quoted := make([]string, len(funcs))
		for i, f := range funcs {
			quoted[i] = regexp.QuoteMeta(f)
		}
		focused, total, err := pprofFocus(path, "^("+strings.Join(quoted, "|")+")$")
		if err != nil {
			return nil, fmt.Errorf("%s: %w", layer, err)
		}
		out[layer] = focused
		out["cpu.total_s"] = total
	}
	return out, nil
}

// pprofShowing is the summary line of `go tool pprof -top`. With every
// node listed, its first figure is the CPU time of the samples the focus
// keeps and its second the profile's total.
var pprofShowing = regexp.MustCompile(`Showing nodes accounting for (\S+), \S+ of (\S+) total`)

// pprofFocus returns the CPU seconds of the profile's samples whose stack
// matches the focus regexp, and the profile's total CPU seconds.
func pprofFocus(path, focus string) (focused, total float64, err error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-unit=ms", "-nodefraction=0",
		"-nodecount=1000000000", "-focus="+focus, path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return 0, 0, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	m := pprofShowing.FindSubmatch(stdout.Bytes())
	if m == nil {
		return 0, 0, fmt.Errorf("go tool pprof: no summary line in %q", stdout.String())
	}
	if focused, err = pprofSeconds(string(m[1])); err != nil {
		return 0, 0, err
	}
	total, err = pprofSeconds(string(m[2]))
	return focused, total, err
}

// pprofSeconds parses a -unit=ms figure ("460ms", or "0").
func pprofSeconds(v string) (float64, error) {
	ms, err := strconv.ParseFloat(strings.TrimSuffix(v, "ms"), 64)
	if err != nil {
		return 0, fmt.Errorf("go tool pprof: figure %q: %w", v, err)
	}
	return ms / 1000, nil
}
