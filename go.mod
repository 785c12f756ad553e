module github.com/cobra-prov/cobra

go 1.24

tool github.com/cobra-prov/cobra/cmd/cobra-lint
