package main

import (
	"cmp"
	"math"
	"slices"
)

// alpha is the significance level at which compare takes an ns/op delta
// between two sample sets as real.
const alpha = 0.05

// maxExactSamples is the sample count per side up to which mannWhitneyP
// counts the exact distribution of U; past it the normal approximation is
// already close and the count would grow as the product of both sizes
// squared.
const maxExactSamples = 20

// mannWhitneyP returns the two-sided p-value of the Mann–Whitney U test
// (Mann & Whitney, 1947) that x and y come from one distribution, the test
// benchstat applies to benchmark samples. Tied values share their mean
// rank. Without ties, and with at most maxExactSamples on each side, the
// p-value is exact; otherwise it comes from the normal approximation with
// tie and continuity corrections. Both sides must be non-empty.
func mannWhitneyP(x, y []float64) float64 {
	type obs struct {
		v     float64
		fromX bool
	}
	pooled := make([]obs, 0, len(x)+len(y))
	for _, v := range x {
		pooled = append(pooled, obs{v, true})
	}
	for _, v := range y {
		pooled = append(pooled, obs{v, false})
	}
	slices.SortFunc(pooled, func(a, b obs) int { return cmp.Compare(a.v, b.v) })
	// rankX sums the ranks of x; tieSum sums t³−t over runs of t tied values.
	rankX, tieSum := 0.0, 0.0
	for i := 0; i < len(pooled); {
		j := i + 1
		for j < len(pooled) && pooled[j].v == pooled[i].v {
			j++
		}
		rank := float64(i+1+j) / 2 // the mean of ranks i+1..j
		for _, o := range pooled[i:j] {
			if o.fromX {
				rankX += rank
			}
		}
		t := float64(j - i)
		tieSum += t*t*t - t
		i = j
	}
	n1, n2 := float64(len(x)), float64(len(y))
	u := rankX - n1*(n1+1)/2
	u = min(u, n1*n2-u)
	if tieSum == 0 && len(x) <= maxExactSamples && len(y) <= maxExactSamples {
		counts := uCounts(len(x), len(y))
		below, total := 0.0, 0.0
		for k, c := range counts {
			total += c
			if float64(k) <= u {
				below += c
			}
		}
		return min(1, 2*below/total)
	}
	n := n1 + n2
	sigma := math.Sqrt(n1 * n2 / 12 * (n + 1 - tieSum/(n*(n-1))))
	if sigma == 0 {
		// Every value is equal: nothing tells the sides apart.
		return 1
	}
	z := max(0, n1*n2/2-u-0.5) / sigma
	return min(1, math.Erfc(z/math.Sqrt2))
}

// uCounts returns c where c[u] counts the orderings of m values from one
// side and n from the other, with no ties, in which exactly u cross pairs
// have the first side's value larger — the exact null distribution of U.
func uCounts(m, n int) []float64 {
	// f[i][j] is the distribution for i and j values. The largest of them
	// is from the first side, beating all j others, or from the second.
	f := make([][][]float64, m+1)
	for i := range f {
		f[i] = make([][]float64, n+1)
		for j := range f[i] {
			c := make([]float64, i*j+1)
			if i == 0 || j == 0 {
				c[0] = 1
			} else {
				for u, v := range f[i-1][j] {
					c[u+j] += v
				}
				for u, v := range f[i][j-1] {
					c[u] += v
				}
			}
			f[i][j] = c
		}
	}
	return f[m][n]
}
