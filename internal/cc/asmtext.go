package cc

import "strconv"

// appendf appends format to b with each %s replaced by a string argument
// and each %d by an integer one, in order, as fmt would print them. These
// are the only verbs the code generators use; formatting them here keeps
// the arguments on the caller's stack, where fmt would box each one and
// format it through reflection. Any other verb or argument type is a bug
// in a generator, and panics.
func appendf(b []byte, format string, args ...any) []byte {
	for i := 0; i < len(format); i++ {
		c := format[i]
		if c != '%' {
			b = append(b, c)
			continue
		}
		i++
		if i == len(format) {
			panic("cc: appendf: format ends in %: " + format)
		}
		if format[i] == '%' {
			b = append(b, '%')
			continue
		}
		if len(args) == 0 {
			panic("cc: appendf: missing argument: " + format)
		}
		arg := args[0]
		args = args[1:]
		switch format[i] {
		case 's':
			s, ok := arg.(string)
			if !ok {
				panic("cc: appendf: %s of a non-string: " + format)
			}
			b = append(b, s...)
		case 'd':
			var v int64
			switch x := arg.(type) {
			case int:
				v = int64(x)
			case int16:
				v = int64(x)
			case int32:
				v = int64(x)
			case int64:
				v = x
			case uint8:
				v = int64(x)
			case uint32:
				v = int64(x)
			case tref:
				v = int64(x)
			default:
				panic("cc: appendf: %d of a non-integer: " + format)
			}
			b = strconv.AppendInt(b, v, 10)
		default:
			panic("cc: appendf: unsupported verb: " + format)
		}
	}
	if len(args) != 0 {
		panic("cc: appendf: extra arguments: " + format)
	}
	return b
}

// regNames spells r0..r31, so naming a register allocates nothing.
var regNames = func() (names [32]string) {
	for i := range names {
		names[i] = "r" + strconv.Itoa(i)
	}
	return names
}()

// immText spells the immediate operand #v.
func immText(v int64) string { return "#" + strconv.FormatInt(v, 10) }

// strLabel is the RISC data label of string literal i.
func strLabel(i int) string { return ".Lstr" + strconv.Itoa(i) }
