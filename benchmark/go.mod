module rodentstore/benchmark

go 1.24

require rodentstore v0.0.0

replace rodentstore => ../
