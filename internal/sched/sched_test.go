package sched

import "testing"

func TestClaimOverlaps(t *testing.T) {
	a := Claim{X0: 0, X1: 10, Y0: 0, Y1: 2}
	cases := []struct {
		b    Claim
		want bool
	}{
		{Claim{X0: 10, X1: 20, Y0: 0, Y1: 2}, false}, // touching in x (half-open)
		{Claim{X0: 9, X1: 20, Y0: 0, Y1: 2}, true},
		{Claim{X0: 0, X1: 10, Y0: 2, Y1: 4}, false}, // touching in y
		{Claim{X0: 0, X1: 10, Y0: 1, Y1: 4}, true},
		{Claim{X0: -5, X1: 30, Y0: -3, Y1: 9}, true}, // containment
		{Claim{X0: 40, X1: 50, Y0: 5, Y1: 9}, false},
	}
	for i, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("case %d: %v.Overlaps(%v) = %v, want %v", i, a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("case %d: overlap not symmetric", i)
		}
	}
	if !(Claim{X0: 3, X1: 3, Y0: 0, Y1: 5}).Empty() {
		t.Error("zero-width claim should be empty")
	}
	if (Claim{X0: 0, X1: 1, Y0: 0, Y1: 1}).Empty() {
		t.Error("unit claim should not be empty")
	}
}
