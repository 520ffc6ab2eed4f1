package main

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
)

// runUTest implements `benchjson utest A B`: A and B each list numbers
// separated by commas or white space, and it prints the two-sided
// Mann–Whitney p-value that both come from one distribution. Scripts that
// hold samples outside a benchjson record (scripts/loadbench_ab.sh) judge a
// shift with it.
func runUTest(args []string, w io.Writer) (int, error) {
	if len(args) != 2 {
		return 0, fmt.Errorf("utest: want two lists of numbers, got %d arguments", len(args))
	}
	var sides [2][]float64
	for i, arg := range args {
		for _, f := range strings.FieldsFunc(arg, func(r rune) bool { return r == ',' || unicode.IsSpace(r) }) {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return 0, fmt.Errorf("utest: %w", err)
			}
			sides[i] = append(sides[i], v)
		}
		if len(sides[i]) == 0 {
			return 0, fmt.Errorf("utest: list %d holds no numbers", i+1)
		}
	}
	fmt.Fprintf(w, "%.4g\n", mannWhitneyP(sides[0], sides[1]))
	return 0, nil
}
