package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// setLine is one run of a result set: the workload, its seed, and the
// result line the run printed (bench/sets.sh writes these).
type setLine struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Result   result `json:"result"`
}

// boundDef is one end-to-end metric of BENCHMARK.json.
type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// metricVerdict is the comparison of one metric on one workload.
type metricVerdict struct {
	Metric           string
	MedA, MedB       float64
	SpreadA, SpreadB float64 // interquartile range over the median
	Change           float64 // relative change of the median, positive = worse
	Bound            float64
	Verdict          string
}

// verdict ranks: a workload row takes its worst metric verdict.
var verdictRank = map[string]int{"unchanged": 0, "better": 1, "unresolved": 2, "worse": 3}

// judge compares runs a (the reference) with runs b of one metric: worse
// when b's median is worse by more than the bound; unresolved when either
// set's interquartile spread exceeds the bound, unless every b reads better
// than every a; better when b wins at least nine tenths of the pairs and the
// medians differ by more than a's interquartile range; unchanged otherwise.
// Swapping a and b therefore never turns an unresolved verdict into a
// resolved one.
func judge(a, b []float64, better string, bound float64) metricVerdict {
	v := metricVerdict{MedA: median(a), MedB: median(b), Bound: bound}
	qa1, qa3 := quartiles(a)
	qb1, qb3 := quartiles(b)
	v.SpreadA = ratio(qa3-qa1, v.MedA)
	v.SpreadB = ratio(qb3-qb1, v.MedB)
	sign := 1.0
	if better == "higher" {
		sign = -1
	}
	v.Change = sign * ratio(v.MedB-v.MedA, v.MedA)
	isBetter := func(x, y float64) bool { return sign*(x-y) < 0 } // x better than y
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && isBetter(x, y)
		}
	}
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if isBetter(b[i], a[i]) {
			wins++
		}
	}
	switch {
	case len(a) == 0 || len(b) == 0:
		v.Verdict = "unresolved"
	case v.SpreadA > bound || v.SpreadB > bound:
		v.Verdict = "unresolved"
		if allBetter {
			v.Verdict = "better"
		}
	case v.Change > bound:
		v.Verdict = "worse"
	case float64(wins) >= 0.9*float64(pairs) && math.Abs(v.MedB-v.MedA) > qa3-qa1:
		v.Verdict = "better"
	default:
		v.Verdict = "unchanged"
	}
	return v
}

// compareSets judges every end-to-end metric of every workload present in
// either set.
func compareSets(bounds []boundDef, a, b []setLine) map[string][]metricVerdict {
	byWorkload := func(set []setLine) map[string][]setLine {
		m := map[string][]setLine{}
		for _, l := range set {
			m[l.Workload] = append(m[l.Workload], l)
		}
		for _, ls := range m {
			sort.SliceStable(ls, func(i, j int) bool { return ls[i].Seed < ls[j].Seed })
		}
		return m
	}
	wa, wb := byWorkload(a), byWorkload(b)
	out := map[string][]metricVerdict{}
	for _, set := range []map[string][]setLine{wa, wb} {
		for w := range set {
			out[w] = nil
		}
	}
	for w := range out {
		for _, d := range bounds {
			pick := func(ls []setLine) []float64 {
				var xs []float64
				for _, l := range ls {
					if m, ok := l.Result.Metrics[d.Name]; ok {
						xs = append(xs, m.Value)
					}
				}
				return xs
			}
			v := judge(pick(wa[w]), pick(wb[w]), d.Better, d.Bound)
			v.Metric = d.Name
			out[w] = append(out[w], v)
		}
	}
	return out
}

// runCompare compares two result sets under the bounds of BENCHMARK.json,
// read from the repository root, where the benchmark runs.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "e2e: -compare needs two result sets: -compare A.jsonl B.jsonl")
		return 2
	}
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 2
	}
	res := compareSets(bounds, a, b)
	var names []string
	for w := range res {
		names = append(names, w)
	}
	sort.Strings(names)
	worse := false
	fmt.Fprintf(stdout, "%-18s %s\n", "workload", "verdict (A -> B)")
	for _, w := range names {
		row := "unchanged"
		for _, v := range res[w] {
			if verdictRank[v.Verdict] > verdictRank[row] {
				row = v.Verdict
			}
		}
		worse = worse || row == "worse"
		fmt.Fprintf(stdout, "%-18s %s\n", w, row)
	}
	fmt.Fprintf(stdout, "\n%-18s %-14s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "change", "IQR/m A", "IQR/m B", "bound", "verdict")
	for _, w := range names {
		for _, v := range res[w] {
			fmt.Fprintf(stdout, "%-18s %-14s %12.5g %12.5g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w, v.Metric, v.MedA, v.MedB, 100*v.Change, 100*v.SpreadA, 100*v.SpreadB, 100*v.Bound, v.Verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func readBounds(path string) ([]boundDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []boundDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return def.EndToEnd, nil
}

func readSet(path string) ([]setLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []setLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l setLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		out = append(out, l)
	}
	return out, sc.Err()
}
