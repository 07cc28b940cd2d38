open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

type options = Hb2.options = {
  n1 : int;
  n2 : int;
  max_newton : int;
  tol : float;
  gmres_tol : float;
}

let default_options = { n1 = 16; n2 = 32; max_newton = 50; tol = 1e-8; gmres_tol = 1e-10 }

type result = {
  circuit : Mna.t;
  f1 : float;
  f2 : float;
  options : options;
  grid : Vec.t;
  newton_iters : int;
  residual : float;
}

let solve_outcome ?budget ?(options = default_options) c ~f1 ~f2 =
  let { n1; n2; max_newton; tol; gmres_tol } = options in
  let grid = { Hbn.dims = [| n1; n2 |]; max_newton; tol; gmres_tol } in
  Hbn.run ?budget ~derivative:Hbn.Backward_difference ~engine:"mfdtd" ~ladder:Hbn.ladder
    ~plan:(fun _ -> (grid, None))
    c ~tones:[| f1; f2 |]
  |> Supervisor.map (fun (r : Hbn.result) ->
         {
           circuit = c;
           f1;
           f2;
           options;
           grid = r.Hbn.grid;
           newton_iters = r.Hbn.newton_iters;
           residual = r.Hbn.residual;
         })

let node_grid res name =
  Mpde.node_grid res.circuit ~n1:res.options.n1 ~n2:res.options.n2 res.grid name

let node_diagonal res name ~n = Mpde.diagonal_samples ~f1:res.f1 ~f2:res.f2 (node_grid res name) ~n
