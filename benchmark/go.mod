module github.com/cobra-prov/cobra/benchmark

go 1.24

require github.com/cobra-prov/cobra v0.0.0

replace github.com/cobra-prov/cobra => ../
