package opt

// PaperNodes hands the in-package fixture to the external contract
// tests (package opt_test), which must import internal/frontier and so
// cannot live in package opt.
var PaperNodes = paperNodes
