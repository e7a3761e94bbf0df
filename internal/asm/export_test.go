package asm

// The lexical fast paths, for FuzzAssemble's comparison with reference forms.
var (
	ParseInt           = parseInt
	RegNum             = regNum
	IndexOutsideQuotes = indexOutsideQuotes
)
