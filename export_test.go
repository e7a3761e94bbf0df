package risc1

// CheckGolden lets the external test package compare output with a golden
// file the way this package's pins do.
var CheckGolden = checkGolden
