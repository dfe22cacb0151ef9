// Package unusedexportgood is a golden fixture for the unused-export
// analyzer: every exported name has a non-test caller and every exported
// field is written, so nothing here may be flagged.
package unusedexportgood

import "fmt"

// OwnPackage is used only inside its own package, which counts.
func OwnPackage() int { return 1 }

var total = OwnPackage()

// Shape is an interface the package uses.
type Shape interface{ Area() float64 }

// Square's Area is only ever called through Shape, and its String only by
// fmt; its Side is set by a composite-literal key.
type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func (s Square) String() string { return fmt.Sprint(s.Side) }

func measure(s Shape) float64 { return s.Area() }

var area = measure(Square{Side: 2})

// Config's fields are set by an assignment, ++, & and a struct tag.
type Config struct {
	Assigned  int
	Counted   int
	Addressed int
	Tagged    string `json:"tagged"`
}

// Pair's fields are set positionally.
type Pair struct{ A, B int }

func configure() Config {
	var c Config
	c.Assigned = 3
	c.Counted++
	fmt.Sscan("4", &c.Addressed)
	return c
}

var (
	cfg  = configure()
	pair = Pair{1, 2}
)

// ExcludedOnly is called only from excluded.go, which the loader skips by
// build constraint.
func ExcludedOnly() {}
