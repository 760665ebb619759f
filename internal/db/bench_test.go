package db

import "testing"

func BenchmarkSamplePairGBDs(b *testing.B) {
	c := testCollection(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.SamplePairGBDs(5000, int64(i))
	}
}

func BenchmarkAddWithIndex(b *testing.B) {
	src := testCollection(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New("bench")
		for j := 0; j < src.Len(); j++ {
			c.Add(src.Graph(j))
		}
	}
}
