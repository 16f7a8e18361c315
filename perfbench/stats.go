package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// maxRSSMB returns the process's peak resident set (VmHWM) in MB.
func maxRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// latHist is a latency histogram with logarithmic buckets, 200 per
// decade (about 1.2% wide), so its memory stays fixed however many ops a
// run makes. Quantiles interpolate linearly inside a bucket.
type latHist struct {
	counts [latBuckets]uint64
	n      uint64
}

const (
	bucketsPerDecade = 200
	latBuckets       = 12 * bucketsPerDecade // 1 ns to 1000 s
)

func bucketLo(i int) float64 { return math.Pow(10, float64(i)/bucketsPerDecade) }

// add records one latency.
func (h *latHist) add(d time.Duration) {
	i := 0
	if d > 1 {
		i = int(math.Log10(float64(d)) * bucketsPerDecade)
	}
	h.counts[min(i, latBuckets-1)]++
	h.n++
}

func (h *latHist) merge(o *latHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMs returns the q-quantile in milliseconds, NaN when empty.
func (h *latHist) quantileMs(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1) // 0-based
	cum := 0.0
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) > rank {
			frac := (rank - cum + 0.5) / float64(c)
			lo, hi := bucketLo(i), bucketLo(i+1)
			return (lo + frac*(hi-lo)) / 1e6
		}
		cum += float64(c)
	}
	return bucketLo(latBuckets) / 1e6
}
