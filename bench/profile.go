package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// layers are the program's modules the CPU profile is split across, by the
// Go package of each sample's leaf function. Everything else, the facade
// and this benchmark included, counts as "other".
var layers = []string{
	"experiments", "repcache", "core", "baseline", "sim", "cluster",
	"accel", "attention", "tensor", "fp16", "runtime", "other",
}

// checkLabel marks, with pprof labels, the CPU the benchmark spends
// checking outputs, so that cpuShares can leave it out.
const checkLabel = "bench"

// packageOf returns the import path of the package that defines the
// function a profile names, e.g. "repro/internal/sim" for
// "repro/internal/sim.(*heap[...]).push".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may contain '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// layerOf maps a function name to one of layers.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, l := range layers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// cpuShares returns each layer's share, in percent, of the flat CPU time in
// a CPU profile as runtime/pprof writes it, adding up what
// `go tool pprof -top -flat` reports per function. Samples labeled
// checkLabel are left out. The shares sum to 100 unless no sample is left,
// when they are all 0.
func cpuShares(profile []byte) (map[string]float64, error) {
	f, err := os.CreateTemp("", "bench-*.pprof")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	_, err = f.Write(profile)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-flat", "-nodecount=0", "-nodefraction=0",
		"-unit=ns", "-symbolize=none", "-tagignore="+checkLabel+"=check", f.Name())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	flat, err := parseFlat(out)
	if err != nil {
		return nil, err
	}
	per := map[string]float64{}
	total := 0.0
	for fn, ns := range flat {
		per[layerOf(fn)] += ns
		total += ns
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 0
		if total > 0 {
			shares[l] = 100 * per[l] / total
		}
	}
	return shares, nil
}

// parseFlat reads the table of `go tool pprof -top -unit=ns` and returns
// each function's flat nanoseconds. A row is "flat flat% sum% cum cum%
// name", with " (inline)" after the name of an inlined function.
func parseFlat(top []byte) (map[string]float64, error) {
	flat := map[string]float64{}
	header := false
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !header {
			header = len(f) == 5 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("go tool pprof: unexpected row %q", sc.Text())
		}
		ns, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ns"), 64)
		if err != nil {
			return nil, fmt.Errorf("go tool pprof: row %q: %v", sc.Text(), err)
		}
		flat[strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")] += ns
	}
	if !header {
		return nil, fmt.Errorf("go tool pprof: no table in output %q", top)
	}
	return flat, sc.Err()
}
