package main

import "sort"

// summary is a sample's median and quartiles. The quartiles use the
// "exclusive" method of Python's statistics.quantiles(n=4), so spreads
// printed here match what an external checker computes from the same
// values.
type summary struct {
	N      int
	Median float64
	Q1, Q3 float64
}

func summarize(values []float64) summary {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	s := summary{N: len(v)}
	switch len(v) {
	case 0:
		return s
	case 1:
		s.Median, s.Q1, s.Q3 = v[0], v[0], v[0]
		return s
	}
	s.Median = median(v)
	s.Q1 = quartile(v, 1)
	s.Q3 = quartile(v, 3)
	return s
}

// median of an ascending slice.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// medianOf sorts a copy of values and returns its median.
func medianOf(values []float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	return median(v)
}

// quartile returns the i-th of the three cut points dividing an ascending
// slice (len >= 2) into quarters, by the exclusive method.
func quartile(v []float64, i int) float64 {
	const n = 4
	m := len(v) + 1
	j, delta := i*m/n, i*m%n
	if j < 1 {
		j, delta = 1, 0
	}
	if j > len(v)-1 {
		j, delta = len(v)-1, n
	}
	return (v[j-1]*float64(n-delta) + v[j]*float64(delta)) / n
}

// percentile returns the p-quantile (0 < p < 1) of an ascending slice by
// nearest rank.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	k := int(p*float64(len(v))+0.5) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(v) {
		k = len(v) - 1
	}
	return v[k]
}
