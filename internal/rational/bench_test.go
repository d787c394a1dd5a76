package rational

import "testing"

// BenchmarkRat times Add, Mul and Cmp on operands of the inline form
// (small), on a value past int64 meeting a small one (promoted), and on
// small operands whose exact result overflows int64 (overflow). The last
// two take math/big.
func BenchmarkRat(b *testing.B) {
	huge := FromInt(1 << 62).Mul(FromInt(8)).Add(One).Div(FromInt(7)) // (2^65+1)/7
	for _, o := range []struct {
		name string
		x, y Rat
	}{
		{"small", FromFrac(3, 14), FromFrac(5, 21)},
		{"promoted", huge, FromFrac(-11, 1<<62)},
		{"overflow", FromFrac(1<<62, 3), FromFrac(1<<61+1, 5)},
	} {
		x, y := o.x, o.y
		b.Run("Add/"+o.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				x.Add(y)
			}
		})
		b.Run("Mul/"+o.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				x.Mul(y)
			}
		})
		b.Run("Cmp/"+o.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				x.Cmp(y)
			}
		})
	}
}
