// Command aacompare compares two sets of benchmark runs of the same
// program — an A/A comparison — to show whether the benchmark is
// steady. Each set is a file of result lines (the last line of each
// perfbench run), one per seed, in seed order:
//
//	go run ./aacompare -bench ../BENCHMARK.json a.jsonl b.jsonl
//
// For every metric it prints each set's median and quartiles (the
// quartiles Python's statistics.quantiles(values, n=4) gives), the
// spread (quartile distance over median), how far B's median moved
// against A's in the metric's worse direction, and the pairs each side
// won. A metric is steady when both spreads stay within a third of its
// bound and B's median is not worse than A's by more than the bound;
// it is marginal when a spread is over a third of the bound but within
// it. Following the gain rule, a difference is only called a change
// when one side wins at least nine tenths of the pairs and the medians
// differ by more than A's spread. The exit code is 1 when any metric is
// neither steady nor marginal.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type result struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "benchmark definition with the metric bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: aacompare [-bench BENCHMARK.json] A.jsonl B.jsonl")
		os.Exit(2)
	}
	if err := run(*bench, flag.Arg(0), flag.Arg(1)); err != nil {
		fmt.Fprintln(os.Stderr, "aacompare:", err)
		os.Exit(1)
	}
}

func run(benchPath, aPath, bPath string) error {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := load(aPath)
	if err != nil {
		return err
	}
	b, err := load(bPath)
	if err != nil {
		return err
	}
	fmt.Printf("%-12s %12s %8s %12s %8s %8s %6s %5s %5s  %s\n",
		"metric", "median A", "spread A", "median B", "spread B", "worse B", "bound", "A won", "B won", "verdict")
	unsteady := 0
	for _, m := range sp.EndToEnd {
		va, vb := values(a, m.Name), values(b, m.Name)
		if len(va) < 4 || len(vb) < 4 {
			return fmt.Errorf("%s: need at least 4 runs per set (have %d and %d)", m.Name, len(va), len(vb))
		}
		medA, sprA := summary(va)
		medB, sprB := summary(vb)
		sign := 1.0 // positive worse = B is worse
		if m.Better == "higher" {
			sign = -1
		}
		worse := sign * (medB - medA) / medA
		aWon, bWon := 0, 0
		for i := 0; i < min(len(va), len(vb)); i++ {
			switch d := sign * (vb[i] - va[i]); {
			case d > 0:
				aWon++
			case d < 0:
				bWon++
			}
		}
		pairs := min(len(va), len(vb))
		verdict := "steady"
		switch {
		case sprA > m.Bound || sprB > m.Bound:
			verdict = "NOISY: spread over bound"
		case worse > m.Bound:
			verdict = "DRIFT: B worse than bound"
		case sprA > m.Bound/3 || sprB > m.Bound/3:
			verdict = "marginal: spread over bound/3"
		}
		if verdict != "steady" && verdict[0] != 'm' {
			unsteady++
		}
		if (aWon*10 >= pairs*9 || bWon*10 >= pairs*9) && math.Abs(medB-medA)/medA > sprA {
			verdict += "; a change by the gain rule"
		}
		fmt.Printf("%-12s %12.6g %7.1f%% %12.6g %7.1f%% %7.1f%% %5.0f%% %5d %5d  %s\n",
			m.Name, medA, 100*sprA, medB, 100*sprB, 100*worse, 100*m.Bound, aWon, bWon, verdict)
	}
	if unsteady > 0 {
		return fmt.Errorf("%d metric(s) not steady", unsteady)
	}
	return nil
}

func load(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: a run reported correct=false", path)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// summary returns the median and the quartile distance over the median.
func summary(xs []float64) (med, spread float64) {
	q := quartiles(xs)
	return q[1], (q[2] - q[0]) / q[1]
}

// quartiles is Python's statistics.quantiles(xs, n=4) with its default
// "exclusive" method.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return out
}
