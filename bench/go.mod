module github.com/conzone/conzone/bench

go 1.22

require github.com/conzone/conzone v0.0.0

replace github.com/conzone/conzone => ../
