package cc

import (
	"fmt"
	"testing"
)

// TestAppendfMatchesFmt holds appendf to fmt.Sprintf on the verbs and
// argument types the generators pass it.
func TestAppendfMatchesFmt(t *testing.T) {
	cases := []struct {
		format string
		args   []any
	}{
		{"nop", nil},
		{"stl r%d,(r%d)#%d", []any{uint8(31), uint8(9), -4096}},
		{"%s (r%d)#%s-%d,r%d", []any{"ldl", uint8(8), "g_x", 4096, uint8(0)}},
		{"li #%d,r%d", []any{int32(-2147483648), uint8(10)}},
		{"addl2 #%d, %s", []any{int64(1) << 40, "-12(fp)"}},
		{".L%s_%s%d", []any{"main", "else", 123456}},
		{"movl r%d, %s", []any{int16(11), ""}},
		{"%d%% of %d", []any{uint32(4294967295), tref(3)}},
	}
	for _, c := range cases {
		want := fmt.Sprintf(c.format, c.args...)
		if got := string(appendf([]byte("x"), c.format, c.args...)); got != "x"+want {
			t.Errorf("appendf(%q) = %q, want %q", c.format, got, "x"+want)
		}
	}
}

// TestAppendfRejectsWhatItCannotFormat pins the panics that stand in for
// fmt's %!verb output: a generator passing anything else has a bug.
func TestAppendfRejectsWhatItCannotFormat(t *testing.T) {
	for _, c := range []struct {
		format string
		args   []any
	}{
		{"%s", []any{3}},
		{"%d", []any{"r3"}},
		{"%x", []any{3}},
		{"%d %d", []any{3}},
		{"%d", []any{3, 4}},
		{"100%", nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("appendf(%q, %v) did not panic", c.format, c.args)
				}
			}()
			appendf(nil, c.format, c.args...)
		}()
	}
}
