package lint

import "testing"

// TestUnreached pins what the unreached analyzer counts as reached. Each
// case takes a fresh analyzer: reachability is computed once per run.
func TestUnreached(t *testing.T) {
	bin := Module + "/cmd/fixture"

	t.Run("unreached_function_and_method_reported", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "unreached"), fixturePkg{bin, `package main
type T struct{ n int }
func (t *T) used()   { t.n++ }
func (t *T) unused() { t.n-- } // want "method (main.T).unused is reached by no binary"
func helper(t *T)    { t.used() }
func orphan()        {} // want "function main.orphan is reached by no binary"
func orphanCaller()  { orphan() } // want "function main.orphanCaller is reached by no binary"
func main()          { helper(&T{}) }
`})
	})
	t.Run("function_values_are_reached", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "unreached"), fixturePkg{bin, `package main
import "sort"
func hello() string { return "hello" }
var registry = map[string]func() string{"hello": hello}
func byLen(xs []string) func(i, j int) bool {
	return func(i, j int) bool { return less(xs[i], xs[j]) }
}
func less(a, b string) bool { return len(a) < len(b) }
func main() {
	xs := []string{registry["hello"](), "hi"}
	sort.Slice(xs, byLen(xs))
}
`})
	})
	t.Run("interface_method_names_reach_methods", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "unreached"), fixturePkg{bin, `package main
import "fmt"
type Shape interface{ Area() float64 }
type Square struct{ s float64 }
func (q Square) Area() float64  { return q.s * q.s }
func (q Square) String() string { return "square" }
func (q Square) Side() float64  { return q.s } // want "method (main.Square).Side is reached by no binary"
type Unused struct{}
func (Unused) Area() float64 { return 0 } // want "method (main.Unused).Area is reached by no binary"
func main() {
	var s Shape = Square{2}
	fmt.Println(s.Area(), s)
}
`})
	})
	t.Run("generic_methods_map_to_their_origin", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "unreached"), fixturePkg{bin, `package main
type Stack[T any] struct{ xs []T }
func (s *Stack[T]) Push(x T) { s.xs = append(s.xs, x) }
func (s *Stack[T]) Len() int { return len(s.xs) }
func (s *Stack[T]) Peek() T { return s.xs[len(s.xs)-1] } // want "method (main.Stack).Peek is reached by no binary"
func first[T any](xs []T) T { return xs[0] }
func main() {
	var s Stack[int]
	s.Push(first([]int{1}))
	println(s.Len())
}
`})
	})
	t.Run("init_functions_are_roots", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "unreached"), fixturePkg{bin, `package main
var table []int
func fill() { table = append(table, 1) }
func init() { fill() }
func main() { println(len(table)) }
`})
	})
	t.Run("allow_keeps_a_symbol_and_goes_stale_once_reached", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "unreached"), fixturePkg{bin, `package main
//lint:allow unreached another package's tests build fixtures with it
func kept() {}
//lint:allow unreached main calls this now
// want(-1) "stale //lint:allow unreached"
func called() {}
func main() { called() }
`})
	})
	t.Run("facade_api_and_aliased_methods_are_roots", func(t *testing.T) {
		dep := fixturePkg{Module + "/internal/dep", `package dep
type Net struct{ n int }
func (n *Net) Grow()  { n.n++ }
func (n *Net) shrink() { n.n-- } // want "method (dep.Net).shrink is reached by no binary"
func Build() *Net     { return &Net{} }
func Spare() int      { return 0 } // want "function dep.Spare is reached by no binary"
`}
		facade := fixturePkg{Module, `package openspace
import "` + Module + `/internal/dep"
type Network = dep.Net
var BuildNetwork = dep.Build
`}
		runFixtureRoots(t, analyzerByName(t, "unreached"), 3, dep, facade, fixturePkg{bin, `package main
func main() {}
`})
	})
	t.Run("silent_without_a_main_package", func(t *testing.T) {
		runFixture(t, analyzerByName(t, "unreached"), fixturePkg{Module + "/internal/fixture", `package fixture
func orphan() {}
//lint:allow unreached a binary outside this load may need it
func Exported() {}
`})
	})
}
