package frep

import "testing"

func TestSegments(t *testing.T) {
	for _, c := range []struct{ n, p, want int }{
		{0, 4, 0}, {1, 4, 1}, {3, 4, 3}, {4, 4, 4},
		{10, 3, 3}, {10, 1, 1}, {10, 0, 1}, {7, 7, 7},
	} {
		segs := Segments(c.n, c.p)
		if len(segs) != c.want {
			t.Fatalf("Segments(%d,%d) = %d windows, want %d", c.n, c.p, len(segs), c.want)
		}
		next := 0
		for _, sg := range segs {
			if sg[0] != next || sg[1] <= sg[0] {
				t.Fatalf("Segments(%d,%d): bad window %v after %d", c.n, c.p, sg, next)
			}
			next = sg[1]
		}
		if c.n > 0 && next != c.n {
			t.Fatalf("Segments(%d,%d) covers [0,%d)", c.n, c.p, next)
		}
	}
}
