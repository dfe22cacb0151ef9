// Package unusedexportbad is a golden fixture for the unused-export
// analyzer: every marked name has no non-test caller, and every marked
// field is only ever read.
package unusedexportbad

func DeadFunc() {} // want "exported name DeadFunc has no non-test caller"

type DeadType struct{} // want "exported name DeadType has no non-test caller"

const DeadConst = 1 // want "exported name DeadConst has no non-test caller"

// TestedOnly is called from bad_test.go alone, which does not count.
func TestedOnly() {} // want "exported name TestedOnly has no non-test caller"

// Recursive only calls itself, which is not a caller.
func Recursive(n int) int { // want "exported name Recursive has no non-test caller"
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Knobs is used, but its field is only read.
type Knobs struct {
	ReadOnly int // want "field Knobs.ReadOnly is never set by non-test code"
}

func (Knobs) DeadMethod() {} // want "exported method Knobs.DeadMethod has no non-test caller"

var read = Knobs{}.ReadOnly

// Muted has no caller either, but a suppression with a reason mutes it.
//
//photon:nolint unused-export -- fixture: a reasoned suppression mutes the finding
func Muted() {}
