// Package main is the negative fixture for the unreached analyzer: a
// binary whose main reaches add and total, but not orphan or reset. CI
// asserts the suite fails on this package.
package main

import "fmt"

type tally struct{ n int }

func (t *tally) add(v int) { t.n += v }

// reset is declared but never called: unreached.
func (t *tally) reset() { t.n = 0 }

func total(vs []int) int {
	var t tally
	for _, v := range vs {
		t.add(v)
	}
	return t.n
}

// orphan is declared but never called: unreached.
func orphan() int { return 42 }

func main() {
	fmt.Println(total([]int{1, 2, 3}))
}
