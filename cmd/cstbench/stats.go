package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// hdQuantile is the Harrell–Davis estimate of the q-quantile of xs: the mean
// of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) density
// over each one's share of [0, 1]. A single order statistic jumps when the
// quantile falls between two clusters of values, as library-tune's median
// does between its fast and its slow stencils; this estimate moves smoothly.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := float64(n+1)*q, float64(n+1)*(1-q)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	density := func(t float64) float64 {
		if t <= 0 || t >= 1 {
			return 0
		}
		return math.Exp(lab - la - lb + (a-1)*math.Log(t) + (b-1)*math.Log1p(-t))
	}
	// Simpson's rule on each order statistic's interval [i/n, (i+1)/n].
	const panels = 8
	var est, total float64
	for i := range s {
		lo, h := float64(i)/float64(n), 1/float64(n*panels)
		w := density(lo) + density(lo+panels*h)
		for k := 1; k < panels; k++ {
			w += float64(2+2*(k%2)) * density(lo+float64(k)*h)
		}
		w *= h / 3
		est += w * s[i]
		total += w
	}
	return est / total
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memMB is the memory the Go runtime holds from the operating system and
// has not released back: the process's footprint, less the binary.
func memMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}
